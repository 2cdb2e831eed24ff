package eoml

import (
	"github.com/eoml/eoml/internal/provenance"
	"github.com/eoml/eoml/internal/ricc"
)

// This file exposes the two §V roadmap extensions the library carries:
// provenance tracking and continual learning.

// ProvenanceStore records workflow lineage (W3C-PROV-style).
type ProvenanceStore = provenance.Store

// NewProvenanceStore returns an empty lineage graph. Attach it to a
// pipeline with Pipeline.SetProvenance; every Run then records the full
// granule→tiles→labels→shipped chain.
func NewProvenanceStore() *ProvenanceStore { return provenance.NewStore() }

// ReplayBuffer is a reservoir of past training tiles for continual
// learning.
type ReplayBuffer = ricc.ReplayBuffer

// NewReplayBuffer creates a reservoir of the given capacity.
func NewReplayBuffer(capacity int, seed int64) (*ReplayBuffer, error) {
	return ricc.NewReplayBuffer(capacity, seed)
}

// UpdateLabeler fine-tunes a labeler's encoder on newly observed tiles,
// replaying buffered history to avoid catastrophic forgetting — the
// paper's continual-learning extension. The AICCA codebook is kept
// fixed, so class identities remain stable across updates.
func UpdateLabeler(l *Labeler, newTiles []*Tile, buffer *ReplayBuffer, epochs int) error {
	return l.Model.ContinualUpdate(newTiles, buffer, epochs)
}

// LabelerDriftOn measures the mean reconstruction error of the labeler's
// autoencoder on a tile population — the forgetting metric for continual
// updates.
func LabelerDriftOn(l *Labeler, tiles []*Tile) (float64, error) {
	return l.Model.ReconstructionError(tiles)
}
