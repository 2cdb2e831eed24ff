module github.com/eoml/eoml/benchmarks

go 1.22

require github.com/eoml/eoml v0.0.0

replace github.com/eoml/eoml => ../
