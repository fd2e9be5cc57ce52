#!/usr/bin/env python3
"""Validate a BENCH_*.json artifact against the benchmark export schema.

Stdlib-only on purpose: this runs as a ctest hook and in CI containers
with no third-party Python packages. The schema is expressed as plain
data below (a miniature of JSON Schema: required keys, type checks,
nested objects/arrays) instead of pulling in jsonschema.

Usage: check_bench_json.py FILE [FILE...]
Exit status: 0 if every file validates, 1 otherwise.
"""

import json
import sys

NUMBER = (int, float)

# Leaf values are required types; dicts recurse; ("array", item_schema)
# requires a non-empty list whose entries all match item_schema.
SCHEMA = {
    "schema_version": int,
    "bench": str,
    "paper": str,
    "device": str,
    "configs": ("array", {
        "name": str,
        "dims": int,
        "radius": int,
        "config": str,
        "bsize_x": int,
        "bsize_y": int,
        "parvec": int,
        "partime": int,
        "input": {"nx": int, "ny": int, "nz": int},
        "model": {
            "fmax_mhz": NUMBER,
            "gbps": NUMBER,
            "gflops": NUMBER,
            "gcells": NUMBER,
            "power_watts": NUMBER,
            "roofline_ratio": NUMBER,
        },
        "simulation": {
            "nx": int,
            "ny": int,
            "nz": int,
            "iters": int,
            "wall_seconds": NUMBER,
            "cells_per_s": NUMBER,
        },
    }),
    "telemetry": {
        "metrics": ("array", {
            "name": str,
            "kind": str,
            "value": int,
            "sum": int,
        }),
    },
}

# The engine demo campaign artifact (stencilctl engine --json): per-job
# latency records plus session-level cache/pool summary. Dispatch: a
# document with a top-level "jobs" array uses this schema, otherwise the
# experiments-summary schema above.
ENGINE_SCHEMA = {
    "schema_version": int,
    "bench": str,
    "paper": str,
    "engine": {
        "workers": int,
        "queue_capacity": int,
        "plan_cache_capacity": int,
    },
    "jobs": ("array", {
        "label": str,
        "backend": str,
        "dims": int,
        "nx": int,
        "ny": int,
        "nz": int,
        "iters": int,
        "plan_cache_hit": bool,
        "exact": bool,
        "queue_ns": int,
        "run_ns": int,
        "cells_written": int,
    }),
    "summary": {
        "jobs": int,
        "completed": int,
        "failed": int,
        "cache_hit_rate": NUMBER,
        "plan_cache_hits": int,
        "plan_cache_misses": int,
        "pool_allocations": int,
        "pool_reuses": int,
        "queue_high_water": int,
    },
}

# The block-parallel scaling campaign artifact (stencilctl blockpar
# --json): one fixed workload, a timed sync baseline, and one record per
# worker count. Dispatch: a document with a top-level "runs" array uses
# this schema.
BLOCK_PARALLEL_SCHEMA = {
    "schema_version": int,
    "bench": str,
    "paper": str,
    "workload": {
        "dims": int,
        "nx": int,
        "ny": int,
        "nz": int,
        "radius": int,
        "parvec": int,
        "partime": int,
        "bsize_x": int,
        "bsize_y": int,
        "iters": int,
        "blocks": int,
    },
    "baseline": {
        "backend": str,
        "wall_seconds": NUMBER,
        "cells_per_s": NUMBER,
    },
    "runs": ("array", {
        "workers": int,
        "resolved_workers": int,
        "blocks": int,
        "wall_seconds": NUMBER,
        "cells_per_s": NUMBER,
        "blocks_per_s": NUMBER,
        "speedup_vs_sync": NUMBER,
        "exact": bool,
    }),
    "summary": {
        "runs": int,
        "exact_runs": int,
        "max_workers": int,
        "best_speedup": NUMBER,
        "redundancy": NUMBER,
        "hardware_concurrency": int,
        "speedup_gate_checked": bool,
    },
}

# The chaos campaign artifact (stencilctl chaos --json): lifecycle /
# cancellation outcome counts, cancel-latency percentiles, and circuit
# breaker counters. Dispatch: a document whose top-level "bench" is
# "chaos_campaign" uses this schema (checked before the jobs/runs keys).
CHAOS_SCHEMA = {
    "schema_version": int,
    "bench": str,
    "paper": str,
    "engine": {
        "workers": int,
        "queue_capacity": int,
        "breaker_threshold": int,
        "breaker_cooldown_ms": int,
    },
    "campaign": {
        "jobs": int,
        "seed": int,
        "cancels_requested": int,
        "deadlines_assigned": int,
        "faulted_jobs": int,
        "wall_seconds": NUMBER,
    },
    "results": {
        "done": int,
        "cancelled": int,
        "deadline_exceeded": int,
        "failed": int,
        "bit_exact": int,
        "hung": int,
    },
    "cancel_latency_ns": {
        "count": int,
        "p50": int,
        "p99": int,
    },
    "breaker": {
        "trips": int,
        "reroutes": int,
        "recovered": bool,
    },
    "pool": {
        "outstanding": int,
        "allocations": int,
        "reuses": int,
    },
}

# The serving-tier campaign artifact (stencilctl serve --json): QoS-class
# and tenant latency percentiles, shard balance/hit-rate, quota and
# isolation verdicts. Dispatch: top-level "bench" == "serving_campaign".
SERVING_SCHEMA = {
    "schema_version": int,
    "bench": str,
    "paper": str,
    "cluster": {
        "shards": int,
        "workers_per_shard": int,
        "vnodes_per_shard": int,
        "queue_capacity": int,
        "class_weights": ("array", int),
    },
    "campaign": {
        "jobs_attempted": int,
        "quota_proof_jobs": int,
        "calibration_jobs": int,
        "main_jobs": int,
        "job_kinds": int,
        "iters": int,
        "seed": int,
        "window": int,
        "wall_seconds": NUMBER,
    },
    "results": {
        "submitted": int,
        "rejected": int,
        "done": int,
        "failed": int,
        "hung": int,
        "bit_exact": int,
        "sink_jobs": int,
        "sink_exact": int,
        "chunks_delivered": int,
        "faults_fired": int,
    },
    "classes": ("array", {
        "name": str,
        "jobs": int,
        "p50_ns": int,
        "p99_ns": int,
        "p999_ns": int,
        "jobs_per_s": NUMBER,
    }),
    "tenants": ("array", {
        "name": str,
        "class": str,
        "role": str,
        "submitted": int,
        "rejected": int,
        "done": int,
        "p50_ns": int,
        "p99_ns": int,
    }),
    "shards": ("array", {
        "shard": int,
        "jobs_completed": int,
        "cache_hit_rate": NUMBER,
    }),
    "balance": {
        "max_over_mean": NUMBER,
        "bound": NUMBER,
    },
    "isolation": {
        "calib_interactive_p99_ns": int,
        "main_interactive_p99_ns": int,
        "calib_standard_p99_ns": int,
        "main_standard_p99_ns": int,
        "passed": bool,
    },
    "router": {
        "reroutes": int,
        "shard_drains": int,
        "shard_reloads": int,
    },
    "pool": {
        "outstanding": int,
    },
    "scale_probe": {
        "probe_jobs": int,
        "single_wall_seconds": NUMBER,
        "cluster_wall_seconds": NUMBER,
        "speedup": NUMBER,
        "needed_cores": int,
        "hardware_concurrency": int,
        "speedup_gate_checked": bool,
        "speedup_gate_ok": bool,
    },
}

QOS_CLASSES = {"interactive", "standard", "batch"}

# The kernel-dispatch scorecard (microbench_kernel_dispatch --json):
# per-envelope-point generic vs specialized throughput with exactness
# verdicts, the acceptance workload, and a block-parallel rerun on the
# specialized path. Dispatch: top-level "bench" == "kernel_dispatch"
# (checked before the jobs/runs keys).
KERNEL_DISPATCH_SCHEMA = {
    "schema_version": int,
    "bench": str,
    "paper": str,
    "mode": str,
    "hardware_concurrency": int,
    "envelope": ("array", {
        "name": str,
        "shape": str,
        "dims": int,
        "radius": int,
        "parvec": int,
        "nx": int,
        "ny": int,
        "nz": int,
        "iters": int,
        "generic_mcells_per_s": NUMBER,
        "specialized_mcells_per_s": NUMBER,
        "speedup": NUMBER,
        "exact": bool,
        "dispatched": bool,
    }),
    "acceptance": {
        "config": str,
        "nx": int,
        "ny": int,
        "nz": int,
        "iters": int,
        "generic_mcells_per_s": NUMBER,
        "specialized_mcells_per_s": NUMBER,
        "speedup": NUMBER,
        "exact": bool,
        "dispatched": bool,
    },
    "blockpar": {
        "baseline_mcells_per_s": NUMBER,
        "speedup_gate_checked": bool,
        "best_speedup": NUMBER,
        "runs": ("array", {
            "workers": int,
            "mcells_per_s": NUMBER,
            "speedup_vs_sync": NUMBER,
            "exact": bool,
        }),
    },
    "summary": {
        "points": int,
        "exact_points": int,
        "min_speedup": NUMBER,
        "median_speedup": NUMBER,
        "max_speedup": NUMBER,
    },
}

# The autotune scorecard (microbench_autotune --json / stencilctl tune
# --json): per-envelope-point paper-default vs cache-model-seeded vs
# empirically searched throughput with exactness verdicts, plus the
# acceptance workload. Dispatch: top-level "bench" == "autotune".
AUTOTUNE_SCHEMA = {
    "schema_version": int,
    "bench": str,
    "paper": str,
    "mode": str,
    "probe_cells": int,
    "envelope": ("array", {
        "name": str,
        "shape": str,
        "dims": int,
        "radius": int,
        "parvec": int,
        "nx": int,
        "ny": int,
        "nz": int,
        "iters": int,
        "default_config": str,
        "model_config": str,
        "tuned_config": str,
        "default_mcells_per_s": NUMBER,
        "model_mcells_per_s": NUMBER,
        "tuned_mcells_per_s": NUMBER,
        "probe_tuned_mcells_per_s": NUMBER,
        "probe_baseline_mcells_per_s": NUMBER,
        "gain": NUMBER,
        "model_gain": NUMBER,
        "candidates_probed": int,
        "search_ns": int,
        "exact": bool,
    }),
    "acceptance": {
        "config": str,
        "tuned_config": str,
        "nx": int,
        "ny": int,
        "nz": int,
        "iters": int,
        "default_mcells_per_s": NUMBER,
        "tuned_mcells_per_s": NUMBER,
        "gain": NUMBER,
        "candidates_probed": int,
        "search_ns": int,
        "exact": bool,
    },
    "summary": {
        "points": int,
        "exact_points": int,
        "min_gain": NUMBER,
        "median_gain": NUMBER,
        "max_gain": NUMBER,
    },
}

# The program campaign artifact (stencilctl program --json): the two
# flagship multi-field DAG workloads (2D FDTD, 3D damped wave) submitted
# through EngineCluster::submit, one record per campaign plus summary.
# Dispatch: top-level "bench" == "program_campaign".
PROGRAM_SCHEMA = {
    "schema_version": int,
    "bench": str,
    "paper": str,
    "cluster": {
        "shards": int,
        "workers": int,
    },
    "campaigns": ("array", {
        "name": str,
        "dims": int,
        "nx": int,
        "ny": int,
        "nz": int,
        "fields": int,
        "nodes": int,
        "steps": int,
        "nodes_scheduled": int,
        "chunks_delivered": int,
        "exact": bool,
        "chunks_exact": bool,
        "second_run_cache_hit": bool,
        "route_stable": bool,
        "wall_seconds": NUMBER,
        "mcups": NUMBER,
    }),
    "summary": {
        "campaigns": int,
        "all_exact": bool,
        "leaked_leases": int,
    },
}

# The host fingerprint block every schema_version >= 2 artifact must
# carry (bench/bench_util.hpp write_host_block): without it, numbers
# from different machines are indistinguishable in committed artifacts.
HOST_SCHEMA = {
    "cores": int,
    "l1_kib": int,
    "l2_kib": int,
    "llc_kib": int,
    "kernel_isa": str,
    "compiler": str,
    "fingerprint": str,
}

METRIC_KINDS = {"counter", "gauge", "histogram"}
BACKENDS = {"automatic", "sync_sim", "concurrent", "block_parallel",
            "resilient", "cluster"}


def check(value, schema, path, errors):
    if isinstance(schema, dict):
        if not isinstance(value, dict):
            errors.append(f"{path}: expected object, got {type(value).__name__}")
            return
        for key, sub in schema.items():
            if key not in value:
                errors.append(f"{path}.{key}: missing required key")
            else:
                check(value[key], sub, f"{path}.{key}", errors)
    elif isinstance(schema, tuple) and schema and schema[0] == "array":
        if not isinstance(value, list):
            errors.append(f"{path}: expected array, got {type(value).__name__}")
            return
        if not value:
            errors.append(f"{path}: array must be non-empty")
        for i, item in enumerate(value):
            check(item, schema[1], f"{path}[{i}]", errors)
    else:
        # bool is an int subclass in Python; never accept it for numbers,
        # but do accept it when bool is what the schema asks for.
        if schema is bool:
            ok = isinstance(value, bool)
        else:
            ok = not isinstance(value, bool) and isinstance(value, schema)
        if not ok:
            want = getattr(schema, "__name__", "number")
            errors.append(
                f"{path}: expected {want}, got {type(value).__name__} "
                f"({value!r})")


def engine_semantic_checks(doc, errors):
    """Constraints of the engine campaign the type schema can't express."""
    for i, job in enumerate(doc.get("jobs", [])):
        if not isinstance(job, dict):
            continue
        path = f"$.jobs[{i}]"
        if job.get("dims") not in (2, 3):
            errors.append(f"{path}.dims: must be 2 or 3")
        if job.get("backend") not in BACKENDS:
            errors.append(
                f"{path}.backend: {job.get('backend')!r} not in "
                f"{sorted(BACKENDS)}")
        for key in ("queue_ns", "run_ns", "cells_written"):
            v = job.get(key)
            if isinstance(v, int) and not isinstance(v, bool) and v < 0:
                errors.append(f"{path}.{key}: negative")
        if job.get("exact") is False:
            errors.append(f"{path}: job output was not bit-exact")
    summary = doc.get("summary", {})
    if isinstance(summary, dict):
        rate = summary.get("cache_hit_rate")
        if (isinstance(rate, NUMBER) and not isinstance(rate, bool)
                and not 0.0 <= rate <= 1.0):
            errors.append("$.summary.cache_hit_rate: outside [0, 1]")
        jobs = summary.get("jobs")
        done = summary.get("completed")
        if isinstance(jobs, int) and isinstance(done, int) and jobs != done:
            errors.append("$.summary: completed != jobs")
        failed = summary.get("failed")
        if isinstance(failed, int) and failed != 0:
            errors.append("$.summary.failed: campaign had failed jobs")


def block_parallel_semantic_checks(doc, errors):
    """Constraints of the scaling campaign the type schema can't express."""
    workload = doc.get("workload", {})
    blocks = workload.get("blocks") if isinstance(workload, dict) else None
    for i, run in enumerate(doc.get("runs", [])):
        if not isinstance(run, dict):
            continue
        path = f"$.runs[{i}]"
        w = run.get("workers")
        if isinstance(w, int) and not isinstance(w, bool) and w < 1:
            errors.append(f"{path}.workers: must be >= 1")
        b = run.get("blocks")
        if isinstance(b, int) and not isinstance(b, bool):
            if b <= 0:
                errors.append(f"{path}.blocks: must be positive")
            if isinstance(blocks, int) and b % blocks != 0:
                errors.append(
                    f"{path}.blocks: {b} not a multiple of the plan's "
                    f"{blocks} blocks per pass")
        for key in ("wall_seconds", "cells_per_s", "blocks_per_s",
                    "speedup_vs_sync"):
            v = run.get(key)
            if isinstance(v, NUMBER) and not isinstance(v, bool) and v <= 0:
                errors.append(f"{path}.{key}: must be positive")
        if run.get("exact") is False:
            errors.append(f"{path}: run was not bit-exact with sync")
    summary = doc.get("summary", {})
    if isinstance(summary, dict):
        runs = summary.get("runs")
        exact = summary.get("exact_runs")
        if isinstance(runs, int) and isinstance(exact, int) and runs != exact:
            errors.append("$.summary: exact_runs != runs")
        declared = doc.get("runs")
        if isinstance(runs, int) and isinstance(declared, list) \
                and runs != len(declared):
            errors.append("$.summary.runs: does not match len($.runs)")
        red = summary.get("redundancy")
        if isinstance(red, NUMBER) and not isinstance(red, bool) and red < 1.0:
            errors.append(
                "$.summary.redundancy: streamed/valid ratio cannot be < 1")
    baseline = doc.get("baseline", {})
    if isinstance(baseline, dict) and baseline.get("backend") != "sync_sim":
        errors.append("$.baseline.backend: speedup denominator must be "
                      "the sync_sim sweep")


def semantic_checks(doc, errors):
    """Constraints the type schema can't express."""
    for i, cfg in enumerate(doc.get("configs", [])):
        path = f"$.configs[{i}]"
        if isinstance(cfg, dict):
            if cfg.get("dims") not in (2, 3):
                errors.append(f"{path}.dims: must be 2 or 3")
            if isinstance(cfg.get("radius"), int) and cfg["radius"] < 1:
                errors.append(f"{path}.radius: must be >= 1")
            model = cfg.get("model", {})
            if isinstance(model, dict):
                for key in ("gflops", "gcells", "gbps", "fmax_mhz"):
                    v = model.get(key)
                    if isinstance(v, NUMBER) and not isinstance(v, bool) and v <= 0:
                        errors.append(f"{path}.model.{key}: must be positive")
            sim = cfg.get("simulation", {})
            if isinstance(sim, dict):
                v = sim.get("wall_seconds")
                if isinstance(v, NUMBER) and not isinstance(v, bool) and v < 0:
                    errors.append(f"{path}.simulation.wall_seconds: negative")
    metrics = doc.get("telemetry", {})
    if isinstance(metrics, dict):
        for i, m in enumerate(metrics.get("metrics", [])):
            if isinstance(m, dict) and m.get("kind") not in METRIC_KINDS:
                errors.append(
                    f"$.telemetry.metrics[{i}].kind: {m.get('kind')!r} not in "
                    f"{sorted(METRIC_KINDS)}")


def kernel_dispatch_semantic_checks(doc, errors):
    """Constraints of the dispatch scorecard the type schema can't express.

    Exactness and dispatch are hard requirements everywhere; throughput
    numbers only need to be positive (absolute speedups vary with the
    host and are gated by the offline --full run, not by CI)."""
    shapes = {"star", "box"}
    for i, pt in enumerate(doc.get("envelope", [])):
        if not isinstance(pt, dict):
            continue
        path = f"$.envelope[{i}]"
        if pt.get("shape") not in shapes:
            errors.append(f"{path}.shape: {pt.get('shape')!r} not in "
                          f"{sorted(shapes)}")
        if pt.get("dims") not in (2, 3):
            errors.append(f"{path}.dims: must be 2 or 3")
        if pt.get("exact") is False:
            errors.append(f"{path}: specialized result diverged from the "
                          "interpreter")
        if pt.get("dispatched") is False:
            errors.append(f"{path}: envelope point missed the registry")
        for key in ("generic_mcells_per_s", "specialized_mcells_per_s",
                    "speedup"):
            v = pt.get(key)
            if isinstance(v, NUMBER) and not isinstance(v, bool) and v <= 0:
                errors.append(f"{path}.{key}: must be positive")
    acc = doc.get("acceptance", {})
    if isinstance(acc, dict):
        if acc.get("exact") is False:
            errors.append("$.acceptance: not bit-exact")
        if acc.get("dispatched") is False:
            errors.append("$.acceptance: specialized kernel not dispatched")
    bp = doc.get("blockpar", {})
    if isinstance(bp, dict):
        for i, run in enumerate(bp.get("runs", [])):
            if isinstance(run, dict) and run.get("exact") is False:
                errors.append(f"$.blockpar.runs[{i}]: not bit-exact with the "
                              "sync specialized run")
    summary = doc.get("summary", {})
    if isinstance(summary, dict):
        points = summary.get("points")
        envelope = doc.get("envelope")
        if isinstance(points, int) and isinstance(envelope, list) \
                and points != len(envelope):
            errors.append("$.summary.points: does not match len($.envelope)")
        exact = summary.get("exact_points")
        if isinstance(points, int) and isinstance(exact, int) \
                and exact != points:
            errors.append("$.summary: exact_points != points")


def serving_semantic_checks(doc, errors):
    """Constraints of the serving campaign the type schema can't express."""
    results = doc.get("results", {})
    if isinstance(results, dict):
        submitted = results.get("submitted")
        rejected = results.get("rejected")
        attempted = doc.get("campaign", {}).get("jobs_attempted") \
            if isinstance(doc.get("campaign"), dict) else None
        ints = [submitted, rejected, attempted]
        if all(isinstance(v, int) and not isinstance(v, bool) for v in ints):
            if submitted + rejected != attempted:
                errors.append("$.results: submitted + rejected != "
                              "$.campaign.jobs_attempted")
        outcome = [results.get(k) for k in ("done", "failed", "hung")]
        if all(isinstance(v, int) and not isinstance(v, bool)
               for v in outcome + [submitted]):
            if sum(outcome) != submitted:
                errors.append("$.results: done + failed + hung != submitted "
                              "(a job was lost or duplicated)")
        if results.get("failed") != 0:
            errors.append("$.results.failed: campaign had failed jobs")
        if results.get("hung") != 0:
            errors.append("$.results.hung: a job never reached a terminal "
                          "state")
        done, exact = results.get("done"), results.get("bit_exact")
        if isinstance(done, int) and isinstance(exact, int) and done != exact:
            errors.append("$.results: bit_exact != done")
        sink, sink_exact = results.get("sink_jobs"), results.get("sink_exact")
        if isinstance(sink, int) and isinstance(sink_exact, int) \
                and sink != sink_exact:
            errors.append("$.results: a chunked delivery did not reassemble "
                          "bit-exactly")
        v = results.get("rejected")
        if isinstance(v, int) and not isinstance(v, bool) and v < 1:
            errors.append("$.results.rejected: quota admission was never "
                          "exercised")
    for i, cls in enumerate(doc.get("classes", [])):
        if not isinstance(cls, dict):
            continue
        path = f"$.classes[{i}]"
        if cls.get("name") not in QOS_CLASSES:
            errors.append(f"{path}.name: {cls.get('name')!r} not in "
                          f"{sorted(QOS_CLASSES)}")
        p50, p99, p999 = (cls.get(k) for k in ("p50_ns", "p99_ns", "p999_ns"))
        if all(isinstance(v, int) and not isinstance(v, bool)
               for v in (p50, p99, p999)):
            if not p50 <= p99 <= p999:
                errors.append(f"{path}: percentiles not ordered "
                              f"(p50 {p50} <= p99 {p99} <= p999 {p999})")
    for i, t in enumerate(doc.get("tenants", [])):
        if not isinstance(t, dict):
            continue
        path = f"$.tenants[{i}]"
        if t.get("class") not in QOS_CLASSES:
            errors.append(f"{path}.class: {t.get('class')!r} not in "
                          f"{sorted(QOS_CLASSES)}")
        p50, p99 = t.get("p50_ns"), t.get("p99_ns")
        if all(isinstance(v, int) and not isinstance(v, bool)
               for v in (p50, p99)) and p50 > p99:
            errors.append(f"{path}: p50_ns > p99_ns")
    shards = doc.get("shards", [])
    cluster = doc.get("cluster", {})
    if isinstance(shards, list) and isinstance(cluster, dict):
        declared = cluster.get("shards")
        if isinstance(declared, int) and declared != len(shards):
            errors.append("$.shards: does not match $.cluster.shards")
        for i, sh in enumerate(shards):
            if not isinstance(sh, dict):
                continue
            rate = sh.get("cache_hit_rate")
            busy = sh.get("jobs_completed")
            if isinstance(rate, NUMBER) and not isinstance(rate, bool):
                if not 0.0 <= rate <= 1.0:
                    errors.append(f"$.shards[{i}].cache_hit_rate: outside "
                                  "[0, 1]")
                elif (isinstance(busy, int) and not isinstance(busy, bool)
                      and busy > 0 and rate <= 0.9):
                    errors.append(f"$.shards[{i}].cache_hit_rate: {rate} "
                                  "<= 0.9 (fingerprint affinity broken)")
    balance = doc.get("balance", {})
    if isinstance(balance, dict):
        ratio, bound = balance.get("max_over_mean"), balance.get("bound")
        if all(isinstance(v, NUMBER) and not isinstance(v, bool)
               for v in (ratio, bound)) and ratio > bound:
            errors.append(f"$.balance: max_over_mean {ratio} exceeds "
                          f"bound {bound}")
    if isinstance(doc.get("isolation"), dict) \
            and doc["isolation"].get("passed") is False:
        errors.append("$.isolation.passed: faulty tenants degraded clean "
                      "tenants' p99")
    router = doc.get("router", {})
    if isinstance(router, dict) and isinstance(cluster, dict) \
            and isinstance(cluster.get("shards"), int) \
            and cluster["shards"] > 1:
        for key in ("shard_drains", "shard_reloads"):
            v = router.get(key)
            if isinstance(v, int) and not isinstance(v, bool) and v < 1:
                errors.append(f"$.router.{key}: drain/reload never exercised")
    pool = doc.get("pool", {})
    if isinstance(pool, dict) and pool.get("outstanding") != 0:
        errors.append("$.pool.outstanding: leaked buffer-pool leases")
    probe = doc.get("scale_probe", {})
    if isinstance(probe, dict) and probe.get("speedup_gate_checked") is True \
            and probe.get("speedup_gate_ok") is False:
        errors.append("$.scale_probe: gate checked on a big-enough host "
                      "but the cluster missed 3/8-linear speedup")


def chaos_semantic_checks(doc, errors):
    """Constraints of the chaos campaign the type schema can't express."""
    results = doc.get("results", {})
    campaign = doc.get("campaign", {})
    if isinstance(results, dict) and isinstance(campaign, dict):
        counts = [results.get(k) for k in
                  ("done", "cancelled", "deadline_exceeded", "failed")]
        jobs = campaign.get("jobs")
        if all(isinstance(c, int) and not isinstance(c, bool)
               for c in counts) and isinstance(jobs, int):
            if sum(counts) != jobs:
                errors.append(
                    "$.results: outcome counts do not sum to $.campaign.jobs")
        if results.get("failed") != 0:
            errors.append("$.results.failed: campaign had unexpected failures")
        if results.get("hung") != 0:
            errors.append("$.results.hung: a job never reached a terminal "
                          "state")
        done = results.get("done")
        exact = results.get("bit_exact")
        if isinstance(done, int) and isinstance(exact, int) and done != exact:
            errors.append("$.results: bit_exact != done (a surviving job "
                          "produced a wrong grid)")
        for key in ("cancelled", "deadline_exceeded"):
            v = results.get(key)
            if isinstance(v, int) and not isinstance(v, bool) and v < 1:
                errors.append(f"$.results.{key}: campaign never exercised it")
    lat = doc.get("cancel_latency_ns", {})
    if isinstance(lat, dict):
        p50, p99 = lat.get("p50"), lat.get("p99")
        if (isinstance(p50, int) and isinstance(p99, int)
                and not isinstance(p50, bool) and not isinstance(p99, bool)
                and p50 > p99):
            errors.append("$.cancel_latency_ns: p50 > p99")
        count = lat.get("count")
        if isinstance(count, int) and not isinstance(count, bool) and count < 1:
            errors.append("$.cancel_latency_ns.count: no latencies recorded")
    breaker = doc.get("breaker", {})
    if isinstance(breaker, dict):
        trips = breaker.get("trips")
        if isinstance(trips, int) and not isinstance(trips, bool) and trips < 1:
            errors.append("$.breaker.trips: the breaker never tripped")
        if breaker.get("recovered") is False:
            errors.append("$.breaker.recovered: half-open probe never closed "
                          "the breaker")
    pool = doc.get("pool", {})
    if isinstance(pool, dict) and pool.get("outstanding") != 0:
        errors.append("$.pool.outstanding: leaked buffer-pool leases")


def program_semantic_checks(doc, errors):
    """Constraints of the program campaign the type schema can't express.

    Exactness is a hard requirement everywhere: every campaign's fields
    must match the multi-field golden model (result and reassembled
    chunk stream alike), repeated submissions must route to one shard
    and hit the per-node plan cache, node accounting must close
    (nodes_scheduled == nodes * steps), and the pool must end clean."""
    for i, c in enumerate(doc.get("campaigns", [])):
        if not isinstance(c, dict):
            continue
        path = f"$.campaigns[{i}]"
        if c.get("dims") not in (2, 3):
            errors.append(f"{path}.dims: must be 2 or 3")
        if c.get("exact") is not True:
            errors.append(f"{path}.exact: fields diverged from the golden "
                          "model")
        if c.get("chunks_exact") is not True:
            errors.append(f"{path}.chunks_exact: chunk stream did not "
                          "reassemble to the golden model")
        if c.get("second_run_cache_hit") is not True:
            errors.append(f"{path}.second_run_cache_hit: repeated program "
                          "missed the plan cache")
        if c.get("route_stable") is not True:
            errors.append(f"{path}.route_stable: program fingerprint "
                          "affinity broke")
        nodes, steps = c.get("nodes"), c.get("steps")
        scheduled = c.get("nodes_scheduled")
        if (isinstance(nodes, int) and isinstance(steps, int)
                and isinstance(scheduled, int)
                and not isinstance(scheduled, bool)
                and scheduled != nodes * steps):
            errors.append(f"{path}.nodes_scheduled: expected nodes * steps "
                          f"= {nodes * steps}, got {scheduled}")
        chunks = c.get("chunks_delivered")
        if isinstance(chunks, int) and not isinstance(chunks, bool) \
                and chunks < 1:
            errors.append(f"{path}.chunks_delivered: nothing streamed")
        mcups = c.get("mcups")
        if isinstance(mcups, NUMBER) and not isinstance(mcups, bool) \
                and mcups <= 0:
            errors.append(f"{path}.mcups: must be positive")
    summary = doc.get("summary", {})
    if isinstance(summary, dict):
        if summary.get("all_exact") is not True:
            errors.append("$.summary.all_exact: a campaign self-check failed")
        if summary.get("leaked_leases") != 0:
            errors.append("$.summary.leaked_leases: leaked buffer-pool "
                          "leases")
        campaigns = summary.get("campaigns")
        if isinstance(campaigns, int) and not isinstance(campaigns, bool) \
                and campaigns < 2:
            errors.append("$.summary.campaigns: both flagship campaigns "
                          "must run")


def autotune_semantic_checks(doc, errors):
    """Constraints of the autotune scorecard the type schema can't express.

    Exactness is a hard requirement everywhere (block geometry is a
    performance-only knob, so a tuned plan that changes bits is a bug).
    The paper-default geometry is always a search candidate, so gains
    must be positive and the envelope median must not regress; the 1.15x
    acceptance-gain gate only applies to the offline --full artifact
    (CI-small grids don't reproduce acceptance-scale cache pressure)."""
    shapes = {"star", "box"}
    for i, pt in enumerate(doc.get("envelope", [])):
        if not isinstance(pt, dict):
            continue
        path = f"$.envelope[{i}]"
        if pt.get("shape") not in shapes:
            errors.append(f"{path}.shape: {pt.get('shape')!r} not in "
                          f"{sorted(shapes)}")
        if pt.get("dims") not in (2, 3):
            errors.append(f"{path}.dims: must be 2 or 3")
        if pt.get("exact") is False:
            errors.append(f"{path}: tuned result diverged from the "
                          "paper-default geometry")
        for key in ("default_mcells_per_s", "tuned_mcells_per_s", "gain"):
            v = pt.get(key)
            if isinstance(v, NUMBER) and not isinstance(v, bool) and v <= 0:
                errors.append(f"{path}.{key}: must be positive")
        probed = pt.get("candidates_probed")
        if isinstance(probed, int) and not isinstance(probed, bool) \
                and probed < 1:
            errors.append(f"{path}.candidates_probed: the search must probe "
                          "at least the paper-default candidate")
    acc = doc.get("acceptance", {})
    full = doc.get("mode") == "full"
    if isinstance(acc, dict):
        if acc.get("exact") is False:
            errors.append("$.acceptance: tuned result not bit-exact")
        gain = acc.get("gain")
        if isinstance(gain, NUMBER) and not isinstance(gain, bool):
            if gain <= 0:
                errors.append("$.acceptance.gain: must be positive")
            elif full and gain < 1.15:
                errors.append(f"$.acceptance.gain: {gain} < 1.15 on the "
                              "--full artifact")
    summary = doc.get("summary", {})
    if isinstance(summary, dict):
        points = summary.get("points")
        envelope = doc.get("envelope")
        if isinstance(points, int) and isinstance(envelope, list) \
                and points != len(envelope):
            errors.append("$.summary.points: does not match len($.envelope)")
        exact = summary.get("exact_points")
        if isinstance(points, int) and isinstance(exact, int) \
                and exact != points:
            errors.append("$.summary: exact_points != points")
        med = summary.get("median_gain")
        if isinstance(med, NUMBER) and not isinstance(med, bool) and med < 1.0:
            errors.append(f"$.summary.median_gain: {med} < 1.0 (the search "
                          "regressed the envelope median)")


def host_block_checks(doc, errors):
    """schema_version >= 2 artifacts must carry the host fingerprint."""
    version = doc.get("schema_version")
    if not isinstance(version, int) or isinstance(version, bool) \
            or version < 2:
        return
    if "host" not in doc:
        errors.append("$.host: missing (required for schema_version >= 2)")
        return
    check(doc["host"], HOST_SCHEMA, "$.host", errors)
    host = doc["host"]
    if isinstance(host, dict):
        for key in ("cores", "l1_kib", "l2_kib", "llc_kib"):
            v = host.get(key)
            if isinstance(v, int) and not isinstance(v, bool) and v < 1:
                errors.append(f"$.host.{key}: must be >= 1")
        fp = host.get("fingerprint")
        if isinstance(fp, str) and not fp:
            errors.append("$.host.fingerprint: empty")


def validate_file(name):
    try:
        with open(name, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"{name}: FAIL: {exc}")
        return False
    errors = []
    is_chaos = isinstance(doc, dict) and doc.get("bench") == "chaos_campaign"
    is_serving = (isinstance(doc, dict)
                  and doc.get("bench") == "serving_campaign")
    is_kernel_dispatch = (isinstance(doc, dict)
                          and doc.get("bench") == "kernel_dispatch")
    is_autotune = isinstance(doc, dict) and doc.get("bench") == "autotune"
    is_program = (isinstance(doc, dict)
                  and doc.get("bench") == "program_campaign")
    is_engine = (not is_chaos and not is_serving and not is_kernel_dispatch
                 and not is_autotune and not is_program
                 and isinstance(doc, dict) and "jobs" in doc)
    is_block_parallel = (not is_chaos and not is_serving
                         and not is_kernel_dispatch and not is_autotune
                         and not is_program
                         and isinstance(doc, dict) and "runs" in doc)
    if isinstance(doc, dict):
        host_block_checks(doc, errors)
    if is_program:
        check(doc, PROGRAM_SCHEMA, "$", errors)
        program_semantic_checks(doc, errors)
    elif is_autotune:
        check(doc, AUTOTUNE_SCHEMA, "$", errors)
        autotune_semantic_checks(doc, errors)
    elif is_serving:
        check(doc, SERVING_SCHEMA, "$", errors)
        serving_semantic_checks(doc, errors)
    elif is_kernel_dispatch:
        check(doc, KERNEL_DISPATCH_SCHEMA, "$", errors)
        kernel_dispatch_semantic_checks(doc, errors)
    elif is_chaos:
        check(doc, CHAOS_SCHEMA, "$", errors)
        chaos_semantic_checks(doc, errors)
    elif is_engine:
        check(doc, ENGINE_SCHEMA, "$", errors)
        engine_semantic_checks(doc, errors)
    elif is_block_parallel:
        check(doc, BLOCK_PARALLEL_SCHEMA, "$", errors)
        block_parallel_semantic_checks(doc, errors)
    else:
        check(doc, SCHEMA, "$", errors)
        semantic_checks(doc, errors)
    if errors:
        print(f"{name}: FAIL ({len(errors)} schema violations)")
        for e in errors:
            print(f"  {e}")
        return False
    if is_program:
        s = doc["summary"]
        names = ", ".join(c["name"] for c in doc["campaigns"])
        print(f"{name}: OK ({s['campaigns']} program campaigns [{names}], "
              f"all exact, 0 leaked leases)")
    elif is_autotune:
        s = doc["summary"]
        print(f"{name}: OK ({s['points']} envelope points, median gain "
              f"{s['median_gain']:.2f}x, acceptance "
              f"{doc['acceptance']['gain']:.2f}x)")
    elif is_serving:
        r = doc["results"]
        print(f"{name}: OK ({doc['campaign']['jobs_attempted']} attempted: "
              f"{r['done']} done, {r['rejected']} quota-rejected, "
              f"{r['chunks_delivered']} chunks streamed)")
    elif is_kernel_dispatch:
        s = doc["summary"]
        print(f"{name}: OK ({s['points']} envelope points, median speedup "
              f"{s['median_speedup']:.2f}x, acceptance "
              f"{doc['acceptance']['speedup']:.2f}x)")
    elif is_chaos:
        r = doc["results"]
        print(f"{name}: OK ({doc['campaign']['jobs']} jobs: "
              f"{r['done']} done, {r['cancelled']} cancelled, "
              f"{r['deadline_exceeded']} expired)")
    elif is_engine:
        rate = doc["summary"]["cache_hit_rate"]
        print(f"{name}: OK ({len(doc['jobs'])} jobs, "
              f"cache hit rate {rate:.3f})")
    elif is_block_parallel:
        best = doc["summary"]["best_speedup"]
        print(f"{name}: OK ({len(doc['runs'])} runs, "
              f"best speedup {best:.2f}x)")
    else:
        print(f"{name}: OK ({len(doc['configs'])} configs, "
              f"{len(doc['telemetry']['metrics'])} metrics)")
    return True


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    ok = all([validate_file(name) for name in argv[1:]])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
