"""In-memory span recorder for the traced benchmark run.

The recorder times calls into voxwind's public functions without touching the
package: while installed it rebinds the module and class attributes that each
caller looks up at call time (``voxwind.env.run_simulation``,
``voxwind.nn.Mlp.forward``, ...) to timing wrappers, and restores the
originals on exit. Every call becomes a span (name, start, end, parent);
spans stay in memory until the run ends and are written out then.

The layer of a span is the first component of its name, so a layer's self
time is its busy time minus the time its spans spend in child spans.
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("windtunnel", "env", "voxel", "nn", "ppo", "cli")


class Recorder:
    """Spans and counters of one benchmark process."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.counters: Counter = Counter()
        self.missing: list = []   # "owner.attr" targets the program no longer has
        self._stack = [-1]
        self._bursts: list = []   # bursts spawned inside the open run_simulation

    # --- recording -------------------------------------------------------------

    def wrap(self, name: str, fn, on_call=None, on_return=None):
        """A wrapper recording one span per call of `fn`.

        on_call(args) runs before the span's clock starts and on_return(args,
        out) after it stops, so counter upkeep stays outside the timed span.
        """
        names, starts, ends, parents, stack = (self.names, self.starts, self.ends,
                                               self.parents, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if on_return is not None:
                on_return(args, out)
            return out

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span of its own."""
        return self.wrap(name, fn)(*args, **kwargs)

    # --- counters kept at the layer boundaries ----------------------------------

    def _step_in(self, args):
        self.counters["windtunnel.particle_steps"] += int(np.count_nonzero(args[0].alive))

    def _step_out(self, args, events):
        self.counters["windtunnel.contacts"] += len(events)

    def _spawned(self, args, burst):
        self._bursts.append(burst)

    def _sim_in(self, args):
        self._bursts = []

    def _sim_out(self, args, result):
        self.counters["windtunnel.inflight_at_cap"] += sum(
            int(np.count_nonzero(b.alive)) for b in self._bursts)
        self._bursts = []

    def _forward_in(self, args):
        self.counters["nn.Mlp.forward.rows"] += 1 if np.ndim(args[1]) == 1 else len(args[1])

    # --- installation ------------------------------------------------------------

    def _targets(self):
        from voxwind import cli, env, nn, ppo, voxel, windtunnel

        sim = dict(on_call=self._sim_in, on_return=self._sim_out)
        return [
            (windtunnel, "step", "windtunnel.step",
             dict(on_call=self._step_in, on_return=self._step_out)),
            (windtunnel, "spawn_burst", "windtunnel.spawn_burst",
             dict(on_return=self._spawned)),
            (windtunnel, "neighborhood_reach", "windtunnel.neighborhood_reach", {}),
            (env, "run_simulation", "windtunnel.run_simulation", sim),
            (cli, "run_simulation", "windtunnel.run_simulation", sim),
            (env, "mean_pool", "env.mean_pool", {}),
            (env, "bilinear_upsample", "env.bilinear_upsample", {}),
            (env, "measure_baseline", "env.measure_baseline", {}),
            (env.WindTunnelEnv, "act", "env.act", {}),
            (env, "apply_height_delta", "voxel.apply_height_delta", {}),
            (voxel, "grid_from_csv", "voxel.grid_from_csv", {}),
            (cli, "grid_from_csv", "voxel.grid_from_csv", {}),
            (cli, "load_heightmap", "voxel.load_heightmap", {}),
            (cli, "voxelise", "voxel.voxelise", {}),
            (ppo, "ppo_update", "ppo.ppo_update", {}),
            (ppo, "compute_gae", "ppo.compute_gae", {}),
            (nn, "adam_step", "nn.adam_step", {}),
            (nn.Mlp, "forward", "nn.Mlp.forward", dict(on_call=self._forward_in)),
            (nn.Mlp, "backward", "nn.Mlp.backward", {}),
            (nn.GaussianPolicy, "sample", "nn.GaussianPolicy.sample", {}),
        ]

    @contextlib.contextmanager
    def installed(self):
        """Rebind the traced names for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, hooks in self._targets():
                original = owner.__dict__.get(attr)
                if original is None:
                    label = f"{owner.__name__}.{attr}"
                    if label not in self.missing:
                        self.missing.append(label)
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, **hooks))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # --- summaries -----------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name and per layer: calls, busy seconds and self seconds.

        A name's busy time is the summed duration of its spans and its self
        time excludes the spans they caused. A layer's busy time counts only
        its spans whose parent lies in another layer, so nested spans of one
        layer are not counted twice.
        """
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        by_name = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        by_layer = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for layer in LAYERS}
        for i, name in enumerate(self.names):
            own = dur[i] - child[i]
            row = by_name[name]
            row["calls"] += 1
            row["busy_s"] += dur[i]
            row["self_s"] += own
            layer = name.split(".", 1)[0]
            lrow = by_layer.setdefault(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            lrow["calls"] += 1
            lrow["self_s"] += own
            p = self.parents[i]
            if p < 0 or self.names[p].split(".", 1)[0] != layer:
                lrow["busy_s"] += dur[i]
        return {"names": dict(by_name), "layers": by_layer}

    def time_under(self, name: str, ancestor: str) -> float:
        """Seconds spent in spans called `name` that run inside an `ancestor` span."""
        total = 0.0
        for i, n in enumerate(self.names):
            if n != name:
                continue
            p = self.parents[i]
            while p >= 0 and self.names[p] != ancestor:
                p = self.parents[p]
            if p >= 0:
                total += self.ends[i] - self.starts[i]
        return total

    def write_csv(self, path) -> None:
        """All spans, one per line: index, name, start, end, parent index."""
        t0 = min(self.starts, default=0.0)
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent\n")
            for i, (n, s, e, p) in enumerate(zip(self.names, self.starts, self.ends,
                                                 self.parents)):
                fh.write(f"{i},{n},{s - t0!r},{e - t0!r},{p}\n")
