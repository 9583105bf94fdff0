// Package repro is a from-scratch Go reproduction of "Open-Channel SSD
// (What is it Good For)" (Picoli, Hedam, Bonnet, Tözün — CIDR 2020).
//
// The repository contains the whole stack the paper describes, built on
// a virtual-time simulator so the experiments run deterministically on a
// laptop:
//
//   - internal/nand     — NAND flash chips (planes, blocks, paired pages,
//     SLC..QLC timing, wear, bad blocks)
//   - internal/ocssd    — an Open-Channel 2.0 SSD (groups/PUs/chunks,
//     vector I/O, chunk reset, device copy, write-back cache)
//   - internal/ox       — the OX controller framework (media manager,
//     FTL layer, host interface; CPU/copy accounting)
//   - internal/ftl/ftlcore — the modular FTL of Figure 2 (mapping,
//     provisioning, WAL, checkpoint, recovery, GC, bad-block management)
//   - internal/oxblock  — OX-Block, the generic block-device FTL
//   - internal/oxeleos  — OX-ELEOS, the log-structured FTL for LLAMA
//   - internal/lightlsm — LightLSM, the RocksDB-environment FTL
//   - internal/zns      — OX-ZNS, the Zoned-Namespaces FTL of §2.3
//   - internal/hostif   — the NVMe-style host interface: typed commands
//     over submission/completion queue pairs, an admin queue pair
//     (identify, log pages, namespace attach, queue-pair lifecycle),
//     deterministic weighted-round-robin arbitration classes,
//     interrupt-style completion notification, one namespace adapter
//     per FTL, and a batched execution engine that overlaps
//     disjoint-footprint commands on a worker pool with bit-identical
//     virtual timing (serial mode remains the reference oracle)
//   - internal/lsm      — a miniature RocksDB (memtable, SSTables,
//     bloom filters, leveled compaction, rate limiter)
//   - internal/dbbench  — the db_bench workloads of §4.3
//   - internal/landscape — Figure 1's SSD taxonomy
//   - internal/exp      — one driver per table/figure of the evaluation
//
// The benchmarks in bench_test.go regenerate every figure; cmd/oxbench
// prints them as paper-style tables. See README.md and DESIGN.md.
package repro
