"""Benchmark of modalmetric's `train` and `eval` commands.

Runs one workload in this process, calling `modalmetric.cli.main` with
the arguments a user would type, timing each command from outside and
checking every artifact it writes with `checks.py`:

    python3 bench/run.py --workload single-run --seed 1 --seconds 20 --trace 0

Rounds of the workload's commands repeat, closed loop, until --seconds
have passed. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. A traced run
alternates untraced and traced rounds; the traced ones record spans (see
tracer.py) and the difference between the two is the tracing overhead.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback

if __name__ == "__main__" and hasattr(os, "sched_setaffinity"):
    # One process on one CPU. On a shared machine with few CPUs, the
    # hand-offs between the program's metric threads (and BLAS threads,
    # which OpenBLAS sizes from this mask when numpy is imported) depend
    # on when other tenants' work lands on the second CPU, and eval times
    # then drift in a way the speed probes do not follow. The
    # program's own thread pool keeps its default size.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import numpy as np

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

DESK = {"n_classes": 16, "samples_per_class_per_modality": 32, "d_in": 32,
        "n_unseen": 4}
# 40 classes x 250 per modality with 8 unseen classes: the unseen split
# has 2000 sketches (queries) and 2000 photos (gallery).
GALLERY = {"n_classes": 40, "samples_per_class_per_modality": 250,
           "d_in": 32, "n_unseen": 8}

# groups: (method, n_seeds) trained per round, each followed by `evals`
# eval commands over its checkpoints.
WORKLOADS = {
    "single-run": {"data": DESK, "csv": False, "train": {"total_iters": 2000},
                   "groups": (("cls-only", 1), ("baseline", 1),
                              ("mathm", 1), ("gan", 1)),
                   "evals": 5, "setup_repeats": 300},
    "seed-grid": {"data": DESK, "csv": False, "train": {"total_iters": 500},
                  "groups": (("baseline", 3), ("mathm", 3), ("gan", 3)),
                  "evals": 3, "setup_repeats": 300},
    "large-gallery": {"data": GALLERY, "csv": True,
                      "train": {"total_iters": 300},
                      "groups": (("mathm", 1),),
                      "evals": 2, "setup_repeats": 3},
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "train_iters_per_s": "iter/s",
    "eval_queries_per_s": "query/s",
    "peak_rss_mb": "MB",
    "map_at_all": "1",
}

# per-layer metric -> (span name, statistic, unit)
PER_LAYER = {
    "data.load_ms": ("data.load", "per_call", "ms"),
    "data.read_dataset_ms": ("data.read_dataset", "per_call", "ms"),
    "data.write_dataset_ms": ("data.write_dataset", "per_call", "ms"),
    "data.sampler_init_ms": ("data.sampler_init", "per_call", "ms"),
    "data.sample_us": ("data.sample", "per_call", "us"),
    "geometry.pairwise_distance_us":
        ("geometry.pairwise_distance", "per_call", "us"),
    "geometry.pairwise_distance.calls":
        ("geometry.pairwise_distance", "calls", "count"),
    "mining.batch_hard_mine_us": ("mining.batch_hard_mine", "per_call", "us"),
    "mining.batch_hard_mine.calls":
        ("mining.batch_hard_mine", "calls", "count"),
    "losses.triplet_hinge_us": ("losses.triplet_hinge", "per_call", "us"),
    "losses.weighted_loss_self_us":
        ("losses.weighted_loss", "self_per_call", "us"),
    "losses.softmax_ce_us": ("losses.softmax_ce", "per_call", "us"),
    "losses.adversarial_us": ("losses.adversarial", "per_call", "us"),
    "model.embed_forward_us": ("model.embed_forward", "per_call", "us"),
    "model.embed_backward_us": ("model.embed_backward", "per_call", "us"),
    "model.adam_step_us": ("model.adam_step", "per_call", "us"),
    "model.embed_eval_ms": ("model.embed_eval", "per_call", "ms"),
    "model.save_checkpoint_ms": ("model.save_checkpoint", "per_call", "ms"),
    "model.load_checkpoint_ms": ("model.load_checkpoint", "per_call", "ms"),
    "training.iter_us": ("training.train", "per_iter", "us"),
    "training.loop_self_us": ("training.train", "self_per_iter", "us"),
    "evaluation.retrieve_ms": ("evaluation.retrieve", "per_call", "ms"),
    "evaluation.ap_ms": ("evaluation.ap", "per_call", "ms"),
    "evaluation.prec_ms": ("evaluation.prec", "per_call", "ms"),
    "evaluation.diagnostics_ms":
        ("evaluation.diagnostics", "per_call", "ms"),
    "evaluation.compute_metrics_ms":
        ("evaluation.compute_metrics", "per_call", "ms"),
    "cli.write_csv_ms": ("cli.write_csv", "per_call", "ms"),
    "cli.write_json_ms": ("cli.write_json", "per_call", "ms"),
    "cli.command_self_ms": ("cli.command", "self_per_call", "ms"),
}
DERIVED_LAYER = {
    "losses.active_fraction": "1",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "trace.span_cost_s": "s",
    "host.probe_ms": "ms",
}
SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6, "count": 1.0}

# The speed of a shared machine drifts with its other tenants' load, by
# up to 2x, sometimes within seconds, and the program slows with it. A
# probe is a short fixed loop of the same kind of work as the program
# (small numpy products, Python objects). Ten probes run before the
# first command and after every command, and a timer signal runs one
# every PROBE_INTERVAL_S while a command runs (a train command lasts
# seconds, long enough for the speed to change inside it). A command's
# time, less the time its probes took, is scaled by PROBE_REF_S / (mean
# of the probes before, during and after it), i.e. reported as seconds
# at the speed where one probe takes PROBE_REF_S.
PROBE_REF_S = 0.0012
PROBE_INTERVAL_S = 0.1
BRACKET_PROBES = 10
_PROBE_X = np.random.default_rng(0).standard_normal((64, 32))
_PROBE_W = np.random.default_rng(1).standard_normal((32, 16))


def probe():
    """Seconds the fixed probe loop takes now."""
    start = time.perf_counter()
    for _ in range(50):
        e = _PROBE_X @ _PROBE_W
        e /= np.linalg.norm(e, axis=1, keepdims=True)
        top = int(np.argmax(e @ e.T, axis=1).sum())
        [(j, top) for j in range(20)]
    return time.perf_counter() - start


def bracket():
    return [probe() for _ in range(BRACKET_PROBES)]


class SpeedSampler:
    """Runs probes from a timer signal while a function runs."""

    def __init__(self):
        self.samples, self.spent = [], 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - start

    def during(self, fn, *args):
        """Returns (fn's result, probe times, seconds the probes took)."""
        self.samples, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return result, self.samples, self.spent


def derive_seeds(seed):
    """Benchmark seed -> (data seed, base training seed)."""
    state = np.random.SeedSequence(seed).generate_state(2)
    return int(state[0] % 2**31), int(state[1] % 2**31)


def digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_text(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


class Bench:
    """One workload at one seed: set-up, rounds of commands, checks."""

    def __init__(self, name, seed):
        self.spec = WORKLOADS[name]
        self.data_seed, self.train_seed = derive_seeds(seed)
        self.work = os.path.join(OUT, name)
        self.ini = os.path.join(self.work, "bench.ini")
        self.problems = []
        self.reference = None  # artifact digests of the first clean round
        self.sampler = SpeedSampler()
        self.map_values = []
        self.active = (0.0, 0)

    # -- set-up --------------------------------------------------------

    def setup(self):
        """Write the inputs and load the evaluation split the checkers
        compare against. Returns its duration in seconds."""
        from modalmetric import config, data

        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        start = time.perf_counter()
        dims = dict(self.spec["data"])
        n_unseen = dims.pop("n_unseen")
        source = "synthetic"
        if self.spec["csv"]:
            source = os.path.join(self.work, "dataset.csv")
            full = data.generate_synthetic(
                data.SyntheticConfig(seed=self.data_seed, **dims))
            data.write_dataset(full, source)
        lines = ["[data]", f"source = {source}", f"n_unseen = {n_unseen}",
                 f"seed = {self.data_seed}"]
        lines += [f"{key} = {value}" for key, value in dims.items()]
        lines.append("[train]")
        lines += [f"{key} = {value}" for key, value in self.spec["train"].items()]
        with open(self.ini, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        self.cfg = config.load_config(self.ini)
        _, self.test_set = self.cfg.load_data()
        return time.perf_counter() - start

    # -- commands ------------------------------------------------------

    def command(self, argv, tracer):
        """Run one CLI command; returns (succeeded, seconds)."""
        from modalmetric import cli

        sink = io.StringIO()
        code = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                main = cli.main if tracer is None \
                    else tracer.wrap("cli.command", cli.main)
                code = main(argv)
        except Exception:
            sink.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        if code != 0:
            print(f"{argv[0]} exited {code}: "
                  f"{sink.getvalue()[-2000:]}", file=sys.stderr)
        return code == 0, seconds

    def paths(self, method, n_seeds):
        """Checkpoint, log and metrics paths of one group."""
        runs = [os.path.join(self.work, "train", method,
                             f"seed-{self.train_seed + i}")
                for i in range(n_seeds)]
        eval_dir = os.path.join(self.work, "eval", method)
        metrics = ([os.path.join(eval_dir, "metrics.json")] if n_seeds == 1
                   else [os.path.join(eval_dir, f"metrics-{i}.json")
                         for i in range(n_seeds)])
        mean = (os.path.join(eval_dir, "metrics_mean.json")
                if n_seeds > 1 else None)
        return runs, eval_dir, metrics, mean

    def round(self, tracer):
        """One pass over every group; returns timings and op counts.

        train_s, eval_s and wall_s are measured command times; the
        scaled_ ones leave out the probes' time and are scaled by the
        probes around and inside each command (see SpeedSampler)."""
        rec = {"attempted": 0, "failed": 0, "train_s": 0.0, "iters": 0,
               "eval_s": 0.0, "eval_rates": [], "ok_groups": [],
               "scaled_train_s": 0.0, "scaled_wall_s": 0.0,
               "probes": bracket()}
        n_queries = int((self.test_set.modalities
                         == self.cfg.query_modality).sum())

        def timed(argv):
            before = rec["probes"][-BRACKET_PROBES:]
            (ok, seconds), inside, spent = self.sampler.during(
                self.command, argv, tracer)
            after = bracket()
            rec["probes"] += inside + after
            scaled = (seconds - spent) * PROBE_REF_S / statistics.mean(
                before + inside + after)
            rec["scaled_wall_s"] += scaled
            rec["attempted"] += 1
            rec["failed"] += not ok
            return ok, seconds, scaled

        for method, n_seeds in self.spec["groups"]:
            runs, eval_dir, _, _ = self.paths(method, n_seeds)
            all_ok, seconds, scaled = timed(
                ["train", "--config", self.ini, "--method", method,
                 "--n_seeds", str(n_seeds),
                 "--base_seed", str(self.train_seed),
                 "--out", os.path.join(self.work, "train")])
            rec["train_s"] += seconds
            rec["scaled_train_s"] += scaled
            rec["iters"] += n_seeds * self.spec["train"]["total_iters"]
            argv = ["eval", "--config", self.ini, "--out", eval_dir]
            for run in runs:
                argv += ["--checkpoint", os.path.join(run, "checkpoint.json")]
            for _ in range(self.spec["evals"]):
                ok, seconds, scaled = timed(argv)
                rec["eval_s"] += seconds
                rec["eval_rates"].append(n_seeds * n_queries / scaled)
                all_ok = all_ok and ok
            if all_ok:
                rec["ok_groups"].append((method, n_seeds))
        rec["wall_s"] = rec["train_s"] + rec["eval_s"]
        return rec

    def timed_setup(self):
        """Median set-up time, scaled like the command times: set-ups run
        in batches, each bracketed by probes."""
        repeats = self.spec["setup_repeats"]
        batch = max(1, repeats // 30)
        scaled, before = [], bracket()
        for _ in range(0, repeats, batch):
            times = [self.setup() for _ in range(batch)]
            after = bracket()
            speed = PROBE_REF_S / statistics.mean(before + after)
            scaled += [t * speed for t in times]
            before = after
        return statistics.median(scaled)

    # -- checks --------------------------------------------------------

    def check_round(self, rec):
        """Check the first clean round's artifacts in full; later rounds
        must reproduce them byte for byte."""
        digests = {}
        for method, n_seeds in rec["ok_groups"]:
            runs, _, metrics, mean = self.paths(method, n_seeds)
            files = [os.path.join(r, f) for r in runs
                     for f in ("training_log.csv", "checkpoint.json")]
            files += metrics + ([mean] if mean else [])
            digests.update((f, digest(f)) for f in files)
        if self.reference is None:
            for method, n_seeds in rec["ok_groups"]:
                self.check_group(method, n_seeds)
            self.reference = digests
            return
        for path, value in digests.items():
            if path in self.reference and self.reference[path] != value:
                self.problems.append(
                    f"{os.path.relpath(path, self.work)} differs from the "
                    "first round's")

    def check_group(self, method, n_seeds):
        from modalmetric import model

        runs, _, metrics_paths, mean_path = self.paths(method, n_seeds)
        snapshots = []
        for run, metrics_path in zip(runs, metrics_paths):
            payload = json.loads(read_text(
                os.path.join(run, "checkpoint.json")))
            log = read_text(os.path.join(run, "training_log.csv"))
            metrics = json.loads(read_text(metrics_path))
            snapshots.append(metrics)
            params, _ = model.load_checkpoint(
                os.path.join(run, "checkpoint.json"))
            program_emb, _ = model.embed_forward(
                params.embedder, self.test_set.features,
                self.test_set.modalities)
            found = checks.check_log(
                log, self.spec["train"]["total_iters"], method == "mathm",
                payload["meta"]["train"]["eps_g"])
            found += checks.check_checkpoint(
                payload, program_emb, self.test_set, self.cfg.eval_k, metrics)
            self.problems += [f"{method} {os.path.basename(run)}: {p}"
                              for p in found]
            self.map_values.append(metrics["map_at_all"])
            total, count = checks.active_fraction(log)
            self.active = (self.active[0] + total, self.active[1] + count)
        if mean_path:
            found = checks.check_mean(snapshots,
                                      json.loads(read_text(mean_path)))
            self.problems += [f"{method} mean: {p}" for p in found]


def layer_metrics(tracer, traced, untraced, active):
    """Per-layer metrics from the spans of the traced rounds."""
    from tracer import span_cost

    per_name, roots = tracer.aggregate()
    n_rounds = len(traced)
    iters = sum(r["iters"] for r in traced)
    metrics = {}
    for metric, (span, stat, unit) in PER_LAYER.items():
        calls, inclusive, own = per_name.get(span, (0, 0.0, 0.0))
        value = {
            "per_call": inclusive / calls if calls else 0.0,
            "self_per_call": own / calls if calls else 0.0,
            "calls": calls / n_rounds,
            "per_iter": inclusive / iters if iters else 0.0,
            "self_per_iter": own / iters if iters else 0.0,
        }[stat]
        metrics[metric] = {"value": value * SCALE[unit], "unit": unit}
    def scaled_wall(rounds):
        return statistics.median(r["scaled_wall_s"] for r in rounds)

    probes = [p for r in traced + untraced for p in r["probes"]]
    values = {
        "losses.active_fraction": active[0] / active[1] if active[1] else 0.0,
        "trace.wall_s": statistics.median(r["wall_s"] for r in traced),
        "trace.overhead_s": scaled_wall(traced) - scaled_wall(untraced),
        "trace.spans": len(tracer.spans) / n_rounds,
        "trace.span_cost_s": len(tracer.spans) / n_rounds * span_cost(),
        "host.probe_ms": statistics.median(probes) * 1e3,
    }
    for metric, unit in DERIVED_LAYER.items():
        metrics[metric] = {"value": values[metric], "unit": unit}
    problems = []
    self_total = sum(own for _, _, own in per_name.values())
    if abs(self_total - sum(roots.values())) > 1e-6 * max(1, len(tracer.spans)):
        problems.append(f"span self times sum to {self_total!r} s, roots "
                        f"to {sum(roots.values())!r} s")
    commands = roots.get("cli.command", 0.0)
    measured = sum(r["wall_s"] for r in traced)
    if not 0.0 <= measured - commands <= 0.01 * measured:
        problems.append(f"command spans cover {commands!r} s of the "
                        f"{measured!r} s timed")
    return metrics, per_name, problems


def traced_call(tracer, fn, *args):
    """Call `fn` with the tracer's wrappers in place."""
    tracer.install()
    try:
        return fn(*args)
    finally:
        tracer.uninstall()


def run(name, seed, seconds, trace):
    from tracer import Tracer

    bench = Bench(name, seed)
    tracer = Tracer() if trace else None
    if tracer:
        traced_call(tracer, tracer.wrap("bench.setup", bench.setup))
    else:
        setup_s = bench.timed_setup()
    rounds = []
    start = time.perf_counter()
    while (len(rounds) < (2 if trace else 1)
           or time.perf_counter() - start < seconds):
        if trace and len(rounds) % 2 == 1:
            rec = traced_call(tracer, bench.round, tracer)
            rec["traced"] = True
        else:
            rec = bench.round(None)
            rec["traced"] = False
        bench.check_round(rec)
        rounds.append(rec)

    if not bench.map_values:
        bench.problems.append("no group completed, nothing was checked")
    result = {
        "correct": not bench.problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
    }
    if trace:
        metrics, per_name, problems = layer_metrics(
            tracer, [r for r in rounds if r["traced"]],
            [r for r in rounds if not r["traced"]], bench.active)
        bench.problems += problems
        result["correct"] = not bench.problems
        with open(os.path.join(bench.work, "trace.json"), "w") as fh:
            json.dump({span: {"calls": c, "inclusive_s": i, "self_s": s}
                       for span, (c, i, s) in sorted(per_name.items())},
                      fh, indent=1)
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(r["scaled_wall_s"] for r in rounds),
            "train_iters_per_s": sum(r["iters"] for r in rounds)
                / sum(r["scaled_train_s"] for r in rounds),
            # single eval commands stall for several times their usual
            # length now and then, so the median command sets the rate
            "eval_queries_per_s": statistics.median(
                rate for r in rounds for rate in r["eval_rates"]),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "map_at_all": (sum(bench.map_values) / len(bench.map_values)
                           if bench.map_values else 0.0),
        }
        metrics = {m: {"value": values[m], "unit": u}
                   for m, u in END_TO_END.items()}
    result["metrics"] = metrics
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{name} seed {seed}: {len(rounds)} rounds, measured walls "
          f"{[round(r['wall_s'], 3) for r in rounds]} s, scaled walls "
          f"{[round(r['scaled_wall_s'], 3) for r in rounds]} s")
    for metric, entry in metrics.items():
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    with open(os.path.join(bench.work, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpus = (sorted(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else "all")
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"{blas.get('name')} {blas.get('version')}, "
            f"{os.cpu_count()} cpus, running on {cpus}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "modalmetric", "cli.py")):
        print(f"error: no modalmetric sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    print(environment())
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
