"""Per-layer timing from outside the program.

``Tracer`` replaces public functions of lidkit's modules with timing
wrappers for the duration of a ``with`` block. Because lidkit calls across
modules through module attributes (``dsp.read_wav``, ``net.forward``) and
within a module through its globals, replacing the module attribute is
seen by every caller. Self time is a wrapper's wall time minus the time of
the wrapped calls made inside it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

import numpy as np


def _frames(features):
    return np.shape(getattr(features, "frames", features))[0]


def _vad_counts(args, kwargs, result):
    features, mask = args[0], np.asarray(args[1], dtype=bool)
    return {"in_frames": features.num_frames, "kept_frames": int(mask.sum())}


# (module, function, work counter or None); counters see (args, kwargs, result)
TRACED = [
    ("harness", "synth_utterance", None),
    ("harness", "apply_channel", None),
    ("harness", "generate_corpus", lambda a, k, r: {"utts": len(r)}),
    ("harness", "train_network", None),
    ("harness", "run_task", None),
    ("dsp", "read_wav", None),
    ("dsp", "write_wav", None),
    ("dsp", "extract_filterbanks", None),
    ("dsp", "mel_filterbank", None),
    ("dsp", "frame_signal", None),
    ("dsp", "frame_log_energy", None),
    ("dsp", "apply_vad", _vad_counts),
    ("net", "forward", lambda a, k, r: {"frames": _frames(a[1])}),
    ("net", "compute_gradients", lambda a, k, r: {"examples": len(a[1])}),
    ("net", "train_step", None),
    ("net", "save_params", None),
    ("net", "load_params", lambda a, k, r: {"bytes": len(a[0])}),
    ("backend", "score_closed_set", None),
    ("backend", "enroll_languages", None),
    ("backend", "score_zero_resource", None),
    ("submission", "parse_scores", lambda a, k, r: {"lines": len(r)}),
    ("submission", "write_scores", None),
    ("submission", "parse_key", None),
    ("submission", "fill_missing",
     lambda a, k, r: {"filled": len(r.added_ids), "dropped": len(r.dropped_ids)}),
    ("metrics", "compute_cavg", None),
    ("metrics", "report_text", None),
    ("metrics", "det_text", None),
]


class Tracer:
    """Accumulates calls, self time and work counts per traced function.
    With a ``speed.SpeedProbe``, probe time that falls inside a call is
    left out of its time."""

    def __init__(self, probe=None):
        self.stats = defaultdict(float)
        self._child_time = []  # one accumulator per active wrapper
        self._probe = probe

    def _probe_s(self):
        return self._probe.spent_s if self._probe is not None else 0.0

    def _wrap(self, module_name, func_name, original, counter):
        prefix = f"{module_name}.{func_name}."
        stats, stack, probe_s = self.stats, self._child_time, self._probe_s

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            probed, start = probe_s(), time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start - (probe_s() - probed)
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats[prefix + "calls"] += 1
                stats[prefix + "self_s"] += elapsed - children
            if counter is not None:
                for stat, value in counter(args, kwargs, result).items():
                    stats[prefix + stat] += value
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, func_name, counter in TRACED:
                module = importlib.import_module(f"lidkit.{module_name}")
                original = getattr(module, func_name)
                saved.append((module, func_name, original))
                setattr(module, func_name, self._wrap(module_name, func_name, original, counter))
            yield self
        finally:
            for module, func_name, original in saved:
                setattr(module, func_name, original)


@contextlib.contextmanager
def capture_results(module, func_name, pick):
    """Collect ``pick(result)`` for each call of ``module.func_name`` while
    the block runs (``pick`` keeps only what a check needs, so large results
    are not held past the call)."""
    original = getattr(module, func_name)
    results = []

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        results.append(pick(result))
        return result

    setattr(module, func_name, wrapper)
    try:
        yield results
    finally:
        setattr(module, func_name, original)
