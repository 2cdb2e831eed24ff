package core

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestConfigKeysMatchParser pins ConfigKeys() to the three places a
// config key must appear: the LoadConfig parsing code, DESIGN.md's
// configuration table, and cmd/eoml's -init sample declaration. A key
// added to any one of them without the others fails here, which is how
// the stall_timeout_ms documentation drift happened in the first place.
func TestConfigKeysMatchParser(t *testing.T) {
	src, err := os.ReadFile("config.go")
	if err != nil {
		t.Fatal(err)
	}
	design, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	sample, err := os.ReadFile(filepath.Join("..", "..", "cmd", "eoml", "main.go"))
	if err != nil {
		t.Fatal(err)
	}

	keys := ConfigKeys()
	leaves := map[string]bool{}
	for _, key := range keys {
		parts := strings.Split(key, ".")
		leaf := parts[len(parts)-1]
		leaves[leaf] = true
		for _, part := range parts {
			leaves[part] = true // nested group names (archive, paths, …) are keys too
		}
		if !strings.Contains(string(src), `["`+leaf+`"]`) {
			t.Errorf("ConfigKeys lists %q but LoadConfig has no [%q] lookup", key, leaf)
		}
		if !strings.Contains(string(design), "`"+key+"`") {
			t.Errorf("DESIGN.md configuration table missing key `%s`", key)
		}
		if !strings.Contains(string(sample), leaf+":") {
			t.Errorf("cmd/eoml sample config missing key %s (leaf %s)", key, leaf)
		}
	}

	// A deprecated key says so wherever an operator meets it: the
	// DESIGN.md table row, the sample config, the LoadConfig example.
	const deprecated = "deprecated, ignored since PR 13"
	for _, line := range strings.Split(string(src)+string(design)+string(sample), "\n") {
		row := strings.HasPrefix(line, "| `batch.delay_ms`") || strings.Contains(line, "delay_ms:")
		if row && !strings.Contains(strings.ToLower(line), strings.ToLower(deprecated)) {
			t.Errorf("batch.delay_ms documented without %q: %s", deprecated, strings.TrimSpace(line))
		}
	}

	// Reverse: every map lookup in LoadConfig must be listed. The parser
	// indexes doc[...] for top-level keys and m[...] for nested ones.
	for _, match := range regexp.MustCompile(`(?:doc|m)\["([a-z_]+)"\]`).FindAllStringSubmatch(string(src), -1) {
		if !leaves[match[1]] {
			t.Errorf("LoadConfig parses key %q that ConfigKeys does not list", match[1])
		}
	}
}
