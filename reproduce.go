package eoml

import (
	"fmt"

	"github.com/eoml/eoml/internal/experiments"
)

// The Reproduce* functions regenerate the paper's tables and figures on
// the calibrated discrete-event simulator and return the rendered text.
// cmd/benchtab wraps them as a CLI; TestReproduceFunctionsRender checks
// that each one renders.

// ReproduceFig3 regenerates the download-speed curves (3 vs 6 workers
// across product sizes).
func ReproduceFig3() string {
	points := experiments.Fig3(experiments.DefaultDownloadModel(), 3, 1)
	return "Fig. 3: download speed vs product size\n" + experiments.RenderFig3(points)
}

// ReproduceFig4 regenerates the strong-scaling completion-time curves.
func ReproduceFig4() string {
	cfg := experiments.DefaultScalingConfig()
	s := experiments.RenderScaling("Fig. 4a: strong scaling by workers (128 files)", "workers",
		experiments.Fig4StrongWorkers(cfg), false)
	s += "\n" + experiments.RenderScaling("Fig. 4b: strong scaling by nodes (80 files, 8 workers/node)", "nodes",
		experiments.Fig4StrongNodes(cfg), true)
	return s
}

// ReproduceFig5 regenerates the weak-scaling completion-time curves.
func ReproduceFig5() string {
	cfg := experiments.DefaultScalingConfig()
	s := experiments.RenderScaling("Fig. 5a: weak scaling by workers (2 files/worker)", "workers",
		experiments.Fig5WeakWorkers(cfg), false)
	s += "\n" + experiments.RenderScaling("Fig. 5b: weak scaling by nodes (8 workers/node, 2 files/worker)", "nodes",
		experiments.Fig5WeakNodes(cfg), true)
	return s
}

// ReproduceTable1 regenerates the tile-throughput table.
func ReproduceTable1() string {
	return experiments.RenderTable1(experiments.RunTable1(experiments.DefaultScalingConfig()))
}

// ReproduceFig6 regenerates the dynamic worker-allocation timeline.
func ReproduceFig6() (string, error) {
	res, err := experiments.RunPipeline(experiments.DefaultPipelineConfig())
	if err != nil {
		return "", err
	}
	s := "Fig. 6: automation timeline (3 download / 32 preprocess / 1 inference workers)\n"
	s += experiments.RenderFig6(res, 72)
	s += fmt.Sprintf("total pipeline time: %.1f virtual seconds; %d tiles labeled\n",
		res.TotalSeconds, res.TilesLabeled)
	return s, nil
}

// ReproduceFig7 regenerates the per-stage latency breakdown.
func ReproduceFig7() (string, error) {
	res, err := experiments.RunPipeline(experiments.DefaultPipelineConfig())
	if err != nil {
		return "", err
	}
	return "Fig. 7: workflow latency breakdown\n" + experiments.RenderFig7(res), nil
}

// ReproduceHeadline regenerates the abstract's 12,000-tiles claim.
func ReproduceHeadline() string {
	secs, rate := experiments.Headline(experiments.DefaultScalingConfig())
	return fmt.Sprintf("Headline: 12,000 tiles with 80 workers on 10 nodes: %.1f virtual seconds (%.1f tiles/s; paper: 44 s, ≈272 tiles/s)\n",
		secs, rate)
}

// ReproduceAblations runs the design-choice ablations from DESIGN.md.
func ReproduceAblations() (string, error) {
	s := "Ablation: node fair-share contention vs contention-free scaling\n"
	s += experiments.RenderContention(experiments.AblationContention(200, nil))
	poll, err := experiments.AblationPoll(nil)
	if err != nil {
		return "", err
	}
	s += "\nAblation: monitor poll interval\n"
	s += experiments.RenderPoll(poll)
	s += "\nAblation: shared-filesystem (Lustre) capacity vs node scaling\n"
	s += experiments.RenderLustre(experiments.AblationLustre(10, 1))
	return s, nil
}
