// Package suites defines synthetic stand-ins for four generations of SPEC
// CPU suites plus SPEC OMP2001, and the pipeline that turns them into
// model datasets.
//
// Each benchmark is a weighted list of trace.Phases whose
// microarchitectural character was set from published observations: the
// ISPASS 2008 paper's per-benchmark behaviour classes for CPU2006 and
// OMP2001, and the cross-generation characterization literature (see
// PAPERS.md) for the CPU2017- and CPU2026-style profiles. Absolute event
// densities differ from any real machine, but the relative structure —
// what discriminates performance classes within a suite, and how the
// event distributions shift between suites — is preserved, which is the
// property the paper's methodology actually consumes.
//
// # The suite zoo
//
// Five suites are defined. Four form the CPU generation ladder consumed
// by the transfer-matrix experiment (internal/transfer, `specchar
// matrix`); OMP2001 is the paper's parallel counterpoint to CPU2006:
//
//   - [CPU2000] (14 benchmarks): the smallest working sets. The same
//     archetypes as CPU2006 — compute, TLB-bound, branchy, one
//     pointer-bound mcf — at 2000-era reference-input scale, so its
//     memory-side event densities sit below CPU2006's across the board.
//   - [CPU2006] (29 benchmarks): the paper's subject. A large
//     cache-resident low-CPI population, DTLB pressure as the top
//     discriminator, mcf/GemsFDTD as memory-bound extremes, sphinx3's
//     split loads, 16-byte SIMD at moderate density.
//   - [CPU2017] (16 benchmarks): the same behaviour classes one step up
//     the ladder. Reference working sets grow (higher L2Miss/DtlbMiss/
//     PageWalk densities), the FP side moves to 32-byte wide-vector
//     streaming (higher SIMD density), and leela/omnetpp/mcf introduce
//     the pointer-chase archetype in moderation.
//   - [CPU2026] (12 benchmarks): the AI-era break. Orchestration phases
//     (accelerator dispatch, runtime glue: branch-entropy-bound, lowest
//     ILP in the zoo), a whole population of irregular-memory
//     pointer-chasers (graph mining, vector search, embedding tables),
//     and wide-vector inference kernels pushing SIMD density past every
//     earlier generation. New behaviour classes, not just scaled ones —
//     which is why older models stop transferring here.
//   - [OMP2001] (11 benchmarks): the parallel suite, dominated by
//     store-forwarding blocks (LdBlkOlp) and very high SIMD rates;
//     deliberately disjoint from the CPU ladder's dominant factors.
//
// The calibration invariant across the CPU ladder (pinned by
// TestGenerationCalibrationOrdering) is monotone ordering of the
// generation-sensitive event densities: mean L2Miss, DtlbMiss and SIMD
// densities each increase strictly from CPU2000 to CPU2026, and mean CPI
// rises with them — on a fixed simulated Core 2-class machine, each
// younger suite is a strictly heavier workload.
package suites
