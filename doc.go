// Package repro reproduces Varghese & Rau-Chaplin, "Data Challenges in
// High-Performance Risk Analytics" (SC 2012, arXiv:1311.5685): the
// three-stage reinsurance risk analytics pipeline — catastrophe
// modelling, portfolio aggregate analysis, dynamic financial analysis —
// together with the data-management substrates the paper discusses
// (in-memory analytics — the Parallel engine over a materialized trial
// table — against distributed-file MapReduce over its spilled shards, a
// random-access oracle the scan-oriented engines are held to, a
// simulated many-core device with shared-memory chunking, and static
// and elastic provisioning policies the pipeline's stages run under).
//
// The public API lives in repro/risk; runnable tools in cmd/; worked
// examples in examples/. DESIGN.md describes the three-stage pipeline
// and the pre-joined event-major loss index (internal/lossindex) every
// aggregate engine shares; EXPERIMENTS.md indexes the experiment
// reproductions. cmd/benchtables regenerates the paper's own
// experiments E1–E9; the repo benchmark (go run ./bench,
// BENCHMARK.json) measures the system end to end and layer by layer.
package repro
