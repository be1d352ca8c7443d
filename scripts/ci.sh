#!/bin/sh
# Tier-1 gate: full build, static analysis, then the whole test tree —
# the alcotest suites plus the check-quick schedule-exploration gate
# and the @lint / @sa aliases wired into `dune runtest` (see bin/dune
# and the root dune file). One checker per discipline: mm-lint (§11)
# checks the syntactic rules (raw primitives, blocking calls, the label
# registry, the simulator capability boundary); mm-sa (§16) checks the
# ordering disciplines over the typed ASTs (labelled read->CAS windows,
# the hazard-pointer protocol, loop progress, fence-before-publish).
# The test suite also runs both mutation walks: every Rt.label deletion
# and every hazard-protocol step deletion must be caught.
set -eu
cd "$(dirname "$0")/.."
dune build
# Machine-readable lint report, kept as a CI artifact even when the
# enforcement gates below fail.
mkdir -p _build/ci
dune exec bin/lint.exe -- --root . --format json lib bin \
  > _build/ci/lint-report.json || true
# Machine-readable mm-sa report (DESIGN.md §16) over the typed ASTs;
# @check guarantees the .cmt files exist.
dune build @check
dune exec bin/sa.exe -- --root . --format json \
  > _build/ci/sa-report.json || true
# Machine-readable contention census (DESIGN.md §12): the threadtest
# failed-CAS report on the seeded simulator, archived so per-site retry
# rates are diffable across commits.
dune exec bin/trace.exe -- report threadtest --threads 16 --heaps 1 \
  --format json > _build/ci/trace-report.json || true
# Machine-readable benchmark results (quick mode): bechamel estimates
# plus every experiment table, archived so the bench trajectory is
# diffable across commits (BENCH_0.json in the repo root is the seed).
MM_BENCH_JSON=_build/ci/bench-report.json dune exec bench/main.exe || true
# Real-runtime latency gate (DESIGN.md §18, §20): contention-free
# malloc+free on the specialized real stack, as a multiple of the same
# round's dispatch/cas/raw floor (one Atomic get+CAS), median over five
# rounds, so the host's speed and its slow phases cancel out. The
# ratios come from BENCH_4.json (cas/raw 6.23 ns): 38.5x and 16.8x are
# 239.7 and 104.6 ns there, at least as strict as the 240 / 105 ns
# absolute bounds they replace (BENCH_4 itself: new 222.2 ns = 35.7x,
# new-cached 77.9 ns = 12.5x). The absolute bounds failed on a slower
# 2-vCPU shared VM in 3 of 3 runs (new 332-413 ns). A breach means
# per-operation overhead crept back into the hot path. Exit code 2
# fails the gate.
dune exec bench/main.exe -- --gate-only \
  --max-floor-ratio malloc+free/new:38.5 \
  --max-floor-ratio malloc+free/new-cached:16.8 > /dev/null
# Wall-clock benchmark self-test (perfbench/README.md): a short run of
# every workload must report every metric of BENCHMARK.json, and the
# oracle must catch a planted double hand-out on all three workloads
# (~18 s). Non-zero exit fails the gate.
python3 perfbench/run.py --self-test > /dev/null
# OS-traffic regression gate (DESIGN.md §14): the 16-thread threadtest
# churn with the warm superblock cache on must keep simulated mmap
# syscalls under 2 per 1k allocator ops (measured 0.36/1k at the
# commit that introduced the cache; the store pool and the cache
# together make churn mmap-free, so a rate above 2 means a recycling
# path regressed). Exit code 2 fails the gate.
dune exec bin/trace.exe -- report threadtest --threads 16 --heaps 1 \
  --sb-cache 8 --max-mmap-per-1k 2.0 > /dev/null
# Large-path OS-traffic gate (DESIGN.md §15): the 8-thread large-alloc
# churn with the page manager on must keep large-path mmap calls (site
# store.mmap.large) under 5 per 1k allocator ops (measured 0.00/1k at
# the commit that introduced the page manager vs 250.75/1k without it,
# so any rate above 5 means large blocks stopped routing through the
# span reservoir). Exit code 2 fails the gate.
dune exec bin/trace.exe -- report large-alloc --threads 8 \
  --page-manager --max-large-mmap-per-1k 5.0 > /dev/null
# Reclamation gate (DESIGN.md §17): the reuse-in-place descriptor pool
# must record ZERO hazard-pointer scans on the 16-thread threadtest —
# it never retires, so a single hp.scan event means a hazard-protected
# path leaked back into the Reuse variant. Exit code 2 fails the gate.
dune exec bin/trace.exe -- report threadtest --threads 16 --heaps 1 \
  --allocator new-reuse --max-hp-scan 0 > /dev/null
# Anchor-contention gate (DESIGN.md §19): the owner-biased free-list
# mode on the one-heap 16-thread threadtest must keep the summed
# anchor.pop+anchor.free failed-CAS count under 5 per 1k allocator ops
# (measured 0.00/1k at the commit that introduced the mode vs
# 1915.59/1k under the anchor mode on the same run — the private LIFO
# absorbs owner frees and the pub word batches remote ones, so any
# rate above 5 means frees leaked back onto the shared anchor). Exit
# code 2 fails the gate.
dune exec bin/trace.exe -- report threadtest --threads 16 --heaps 1 \
  --allocator new-ob --max-failed-cas-per-1k anchor.pop+anchor.free:5.0 \
  > /dev/null
dune build @lint
dune build @sa
dune runtest
# Executable docs: run every fenced `dune exec` command in README.md,
# EXPERIMENTS.md and DESIGN.md (scripts/doc_check.sh).
dune build @doc-check
