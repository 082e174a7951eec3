"""Run one ``isaclab`` CLI command with spans around public layer calls.

Usage::

    python tracer.py SPANS.json -- simulate --config exp.ini ...

The public functions below are wrapped from outside the program: each
wrapper is rebound in every ``isaclab`` module that holds the original
(``estimators`` imports ``apply_channel`` by name, for example). Wrappers
keep a thread-local span stack, so spans from trial worker threads nest
under the right parent, and record the calling thread's CPU time beside
the wall time, so time spent waiting for the interpreter lock shows.
Spans stay in memory until the command returns; then they are written to
SPANS.json with the command's wall and CPU time, and the tracer exits
with the command's exit code.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import threading
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, fn, name, before=None, after=None):
        """Wrapper recording a span ``name`` around each call of ``fn``.

        ``before(args, kwargs)`` and ``after(result, args, kwargs)`` return
        dicts of attributes stored on the span.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            span = {"name": name, "thread": threading.get_ident(),
                    "parent": stack[-1]["id"] if stack else -1}
            with self._lock:
                span["id"] = len(self.spans)
                self.spans.append(span)
            if before is not None:
                span.update(before(args, kwargs))
            stack.append(span)
            cpu0 = time.thread_time()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["cpu"] = time.thread_time() - cpu0
                stack.pop()
            if after is not None:
                span.update(after(result, args, kwargs))
            return result
        return wrapper


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _dictionary_before(args, kwargs):
    # args[0] is the Dictionary instance being initialised
    probe = _arg(args, kwargs, 1, "probe")
    delays = np.asarray(_arg(args, kwargs, 2, "delay_grid"), float)
    dopplers = np.asarray(_arg(args, kwargs, 3, "doppler_grid"), float)
    h = hashlib.sha1(np.ascontiguousarray(probe.samples).tobytes())
    h.update(delays.tobytes())
    h.update(dopplers.tobytes())
    return {"key": h.hexdigest(), "atoms": int(delays.size * dopplers.size)}


def _apply_channel_before(args, kwargs):
    u = _arg(args, kwargs, 0, "u")
    scn = _arg(args, kwargs, 1, "scene")
    shifts = [t.delay * u.sample_rate for t in scn.targets]
    return {"integer_delay": all(abs(s - round(s)) < 1e-9 for s in shifts)}


def _flops_after(result, args, kwargs):
    return {"flops": int(result.cost.flop_count)}


def _music_before(args, kwargs):
    delays = np.asarray(_arg(args, kwargs, 2, "delay_grid"))
    dopplers = np.asarray(_arg(args, kwargs, 3, "doppler_grid"))
    return {"grid_cells": int(delays.size * dopplers.size)}


def _bp_after(result, args, kwargs):
    config = _arg(args, kwargs, 1, "config")
    return {"iterations": max(b.iteration for b in result.values()),
            "max_iterations": config.max_iterations}


# (module, attribute, span name, before, after); span names are the
# layer's module plus the public function
TARGETS = (
    ("harness", "load_config", "harness.load_config", None, None),
    ("harness", "run_trial", "harness.run_trial", None, None),
    ("harness", "emit_report", "harness.emit_report", None, None),
    ("waveform", "generate_psk_frame", "waveform.generate", None, None),
    ("waveform", "generate_chirp", "waveform.generate", None, None),
    ("waveform", "generate_ofdm", "waveform.generate", None, None),
    ("scene", "load_scene", "scene.load_scene", None, None),
    ("scene", "apply_channel", "scene.apply_channel",
     _apply_channel_before, None),
    ("estimators", "omp_estimate", "estimators.omp_estimate",
     None, _flops_after),
    ("estimators", "music_estimate", "estimators.music_estimate",
     _music_before, _flops_after),
    ("estimators", "demodulate", "estimators.demodulate", None, None),
    ("metrics", "r_squared", "metrics.r_squared", None, None),
    ("unified", "estimator_metric", "unified.estimator_metric", None, None),
    ("syncnet", "load_sync_scenario", "syncnet.load_sync_scenario",
     None, None),
    ("syncnet", "simulate_measurements", "syncnet.simulate_measurements",
     None, None),
    ("syncnet", "run_loopy_bp", "syncnet.run_loopy_bp", None, _bp_after),
    ("syncnet", "pair_log_likelihood", "syncnet.pair_log_likelihood",
     None, None),
    ("syncnet", "estimate_mmse", "syncnet.estimate_mmse", None, None),
)


def install(tracer: Tracer) -> None:
    """Rebind every target in every loaded isaclab module that holds it."""
    import isaclab  # noqa: F401  (loads every submodule)
    from isaclab import estimators

    modules = [m for n, m in sys.modules.items()
               if n == "isaclab" or n.startswith("isaclab.")]
    for mod_name, attr, span, before, after in TARGETS:
        original = getattr(sys.modules[f"isaclab.{mod_name}"], attr)
        wrapped = tracer.wrap(original, span, before, after)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    cls = estimators.Dictionary
    cls.__init__ = tracer.wrap(cls.__init__, "estimators.Dictionary",
                               _dictionary_before, None)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <isaclab arguments>",
              file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    from isaclab import cli

    wall0, cpu0 = time.perf_counter(), time.process_time()
    code = cli.main(cli_args)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump({"wall_s": wall, "cpu_s": cpu, "exit": code,
                   "spans": tracer.spans}, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
