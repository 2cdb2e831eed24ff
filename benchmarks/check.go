package main

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/eoml/eoml/internal/tile"
)

// granuleFailure names one granule whose shipped product is wrong.
type granuleFailure struct {
	Granule int // five-minute slot index; -1 for a file no granule owns
	Reason  string
}

func (f granuleFailure) String() string {
	return fmt.Sprintf("granule %d: %s", f.Granule, f.Reason)
}

// verifyShipped compares the labeled files in destDir against the
// reference labeling: the file set, each file's tile count, and every
// label. fleet ≡ local and batch ≡ single-file encodes are pinned
// bit-identical by the repository's tests, so exact equality is the
// check. One failure is reported per wrong granule.
func verifyShipped(destDir string, want []granuleRef) []granuleFailure {
	var failures []granuleFailure
	expected := map[string]bool{}
	for _, g := range want {
		expected[g.TileFile] = true
		tiles, err := tile.ReadNetCDF(filepath.Join(destDir, g.TileFile))
		if err != nil {
			failures = append(failures, granuleFailure{g.ID.Index, fmt.Sprintf("labeled file not shipped: %v", err)})
			continue
		}
		if len(tiles) != len(g.Labels) {
			failures = append(failures, granuleFailure{g.ID.Index, fmt.Sprintf("%d tiles shipped, reference has %d", len(tiles), len(g.Labels))})
			continue
		}
		for i, t := range tiles {
			if t.Label != g.Labels[i] {
				failures = append(failures, granuleFailure{g.ID.Index, fmt.Sprintf("tile %d labeled %d, reference %d", i, t.Label, g.Labels[i])})
				break
			}
		}
	}
	entries, err := os.ReadDir(destDir)
	if err != nil {
		return failures // every expected file already failed above
	}
	for _, e := range entries {
		if !expected[e.Name()] {
			failures = append(failures, granuleFailure{-1, "unexpected file shipped: " + e.Name()})
		}
	}
	return failures
}
