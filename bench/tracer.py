"""Span tracing from outside the program.

`Tracer.install` replaces functions at the names their callers look them
up (module globals and class attributes) with wrappers that record one
span per call: name, parent span, start and end. Spans stay in memory;
`aggregate` folds them into per-name totals, where a span's self time is
its duration minus the durations of its direct children (calls are
single-threaded and properly nested, so the children never overlap).
"""

import functools
import statistics
import time

import modalmetric.cli as cli
import modalmetric.config as config
import modalmetric.data as data
import modalmetric.evaluation as evaluation
import modalmetric.losses as losses
import modalmetric.training as training

# span name -> the (owner, attribute) lookup sites wrapped under it
SITES = {
    "data.load": [(config.RunConfig, "load_data")],
    "data.read_dataset": [(config, "read_dataset")],
    "data.write_dataset": [(data, "write_dataset")],
    "data.sampler_init": [(data.PKSampler, "__init__")],
    "data.sample": [(data.PKSampler, "sample")],
    "geometry.pairwise_distance": [(losses, "pairwise_distance"),
                                   (evaluation, "pairwise_distance")],
    "mining.batch_hard_mine": [(losses, "batch_hard_mine")],
    "losses.triplet_hinge": [(losses, "triplet_hinge")],
    "losses.weighted_loss": [(training, "weighted_embedding_loss")],
    "losses.softmax_ce": [(training, "softmax_ce")],
    "losses.adversarial": [(training, "adversarial_g_loss"),
                           (training, "adversarial_d_loss")],
    "model.embed_forward": [(training, "embed_forward")],
    "model.embed_backward": [(training, "embed_backward")],
    "model.adam_step": [(training, "adam_step")],
    "model.embed_eval": [(cli, "embed_forward")],
    "model.save_checkpoint": [(cli, "save_checkpoint")],
    "model.load_checkpoint": [(cli, "load_checkpoint")],
    "training.train": [(cli, "train")],
    "evaluation.compute_metrics": [(cli, "compute_metrics")],
    "evaluation.retrieve": [(evaluation, "retrieve")],
    "evaluation.ap": [(evaluation, "map_at_all"), (evaluation, "map_at_n")],
    "evaluation.prec": [(evaluation, "prec_at_k")],
    "evaluation.diagnostics": [(evaluation, "modality_gap"),
                               (evaluation, "within_class_similarity"),
                               (evaluation, "between_class_discrepancy")],
    "cli.write_csv": [(cli, "write_csv")],
    "cli.write_json": [(cli, "write_json")],
}


def span_cost(calls=20000, repeats=5):
    """Median extra seconds one traced call costs over a plain call."""
    def plain():
        return None

    traced = Tracer().wrap("calibration", plain)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            plain()
        middle = time.perf_counter()
        for _ in range(calls):
            traced()
        samples.append((time.perf_counter() - middle) - (middle - start))
    return max(0.0, statistics.median(samples) / calls)


class Tracer:
    """Records spans as (name, parent index, start, end); parent -1 marks
    a root. A span's index is fixed when it opens, so parents precede
    their children in `spans`."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def wrap(self, name, fn):
        """`fn` recording one span named `name` per call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, parent, start, end)

        return traced

    def install(self):
        for name, sites in SITES.items():
            for owner, attr in sites:
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def aggregate(self):
        """Per span name: calls, inclusive seconds and self seconds, plus
        the total duration of the roots carrying each root name."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        per_name = {}
        roots = {}
        for i, (name, parent, start, end) in enumerate(self.spans):
            entry = per_name.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_time[i]
            if parent < 0:
                roots[name] = roots.get(name, 0.0) + end - start
        return per_name, roots
