"""One deployment run of one workload, in a fresh process.

``run.py`` starts this script once per repetition so that peak memory
and warm caches never leak from one run into the next. It

1. generates the workload's inputs from the seed, or loads the copy an
   earlier worker of the same run saved (untimed);
2. builds the deployment and runs ``initial_fit`` ``SETUPS`` times,
   timing each (the last deployment is the one that runs);
3. runs ``Deployment.run`` over the pre-generated stream, timing the
   whole loop, each chunk step (successive pulls on the input
   iterator), each ``PipelineManager.answer_queries`` call and each
   training event, each rescaled by :class:`SpeedClock` and without
   the checkpoint store's file-system calls;
   with ``--traced`` the layer wrappers of ``layers.py`` are installed
   for the run and removed after it;
4. checks the outputs and prints one JSON object as its last line.

Usage: ``python3 perfbench/worker.py --workload url-continuous --seed 7``
"""

from __future__ import annotations

import argparse
import json
import pickle
import resource
import shutil
import sys
import tempfile
import warnings
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import repro  # noqa: E402
import repro.reliability.checkpoint as checkpoint_module  # noqa: E402
from repro.core.pipeline_manager import PipelineManager  # noqa: E402
from repro.core.proactive import ProactiveTrainer  # noqa: E402
from repro.exceptions import ConvergenceWarning  # noqa: E402

from layers import LayerTracer, Patches  # noqa: E402
from workloads import WORKLOADS, check_outputs, output_digest  # noqa: E402


#: Work of the calibration kernel: a pure-Python loop and small NumPy
#: reductions, the two kinds of work a chunk step does.
_KERNEL_LOOP = 1500
_KERNEL_ARRAY = np.arange(2000, dtype=np.float64)

#: Time of the kernel's second (timed) pass on the reference machine
#: in its host's usual fast state (2 vCPU x86-64 container, Python
#: 3.11, NumPy 2.4). A faster state gives slowdowns below 1.
REFERENCE_KERNEL_S = 120e-6

#: Set-ups per worker; ``setup_s`` is the median over all of a run's.
SETUPS = 3


def _kernel() -> None:
    total = 0
    for i in range(_KERNEL_LOOP):
        total += i * i
    for __ in range(20):
        (_KERNEL_ARRAY * 1.0001).sum()


class SpeedClock:
    """Rescales wall intervals to the reference machine's full speed.

    Shared hosts switch between speed states that differ by up to
    2.4x for seconds to minutes at a time, which moves every wall time in a
    state by the same factor. :meth:`calibrate` runs a fixed kernel
    (about 0.12 ms) twice between timed intervals and returns the
    host's current slowdown, ``second pass / REFERENCE_KERNEL_S``. The
    untimed first pass reloads the kernel's code and data into the
    caches, so a step that evicts them does not slow the timed pass
    and divide part of its own cost away. An interval is divided by the
    mean slowdown of the two calibrations that bracket it.
    """

    def __init__(self) -> None:
        self.factors = []

    def calibrate(self) -> float:
        _kernel()
        start = perf_counter()
        _kernel()
        factor = (perf_counter() - start) / REFERENCE_KERNEL_S
        self.factors.append(factor)
        return factor


class ChunkProbe(Patches):
    """The few timers the untraced run needs, at class level.

    Records each served chunk's predictions and labels (the output
    check) and the wall time of ``answer_queries``; and the wall time
    of each training event — ``sample_for_training`` entry to
    ``ProactiveTrainer.run`` exit, or one ``full_retrain`` call — with
    the index of the chunk step it fell in; and the time each chunk
    step spends in the checkpoint store's file layer
    (``atomic_write_bytes``: create, write, ``fsync``, rename and
    stale-file sweep). The file layer's latency depends on the shared
    disk and on kernel caches that earlier runs filled; it drifts
    severalfold between runs whatever the program does. So it is left
    out of every end-to-end time and reported with its call count.
    """

    def __init__(self, steps: list) -> None:
        super().__init__()
        self.steps = steps
        self.predictions = []
        self.labels = []
        self.predict_s = []
        self.train_events = []
        #: Seconds in the checkpoint file layer, by chunk step index.
        self.file_s = {}
        self.file_writes = 0
        self._event_start = None

    def __enter__(self) -> "ChunkProbe":
        answer = PipelineManager.__dict__["answer_queries"]
        sample = PipelineManager.__dict__["sample_for_training"]
        proactive = ProactiveTrainer.__dict__["run"]
        retrain = PipelineManager.__dict__["full_retrain"]
        write = checkpoint_module.__dict__["atomic_write_bytes"]
        events = self.train_events
        steps = self.steps

        def answer_queries(manager, table):
            start = perf_counter()
            predictions, labels = answer(manager, table)
            self.predict_s.append(perf_counter() - start)
            self.predictions.append(predictions)
            self.labels.append(labels)
            return predictions, labels

        def sample_for_training(manager, *args, **kwargs):
            self._event_start = perf_counter()
            return sample(manager, *args, **kwargs)

        def run(trainer, samples):
            outcome = proactive(trainer, samples)
            elapsed = perf_counter() - self._event_start
            events.append((len(steps), elapsed))
            return outcome

        def full_retrain(manager, *args, **kwargs):
            start = perf_counter()
            result = retrain(manager, *args, **kwargs)
            events.append((len(steps), perf_counter() - start))
            return result

        def atomic_write_bytes(path, blob):
            start = perf_counter()
            written = write(path, blob)
            index = len(steps)
            self.file_s[index] = (
                self.file_s.get(index, 0.0) + perf_counter() - start
            )
            self.file_writes += 1
            return written

        self.patch(PipelineManager, "answer_queries", answer_queries)
        self.patch(PipelineManager, "sample_for_training", sample_for_training)
        self.patch(ProactiveTrainer, "run", run)
        self.patch(PipelineManager, "full_retrain", full_retrain)
        self.patch(checkpoint_module, "atomic_write_bytes", atomic_write_bytes)
        return self


def pulls(tables, clock: SpeedClock, steps: list, slowdowns: list):
    """Yield the stream; time each chunk step from pull to next pull.

    Calibrations run between steps, outside every interval; step ``i``
    is bracketed by ``slowdowns[i]`` and ``slowdowns[i + 1]``.
    """
    for table in tables:
        slowdowns.append(clock.calibrate())
        start = perf_counter()
        yield table
        steps.append(perf_counter() - start)
    slowdowns.append(clock.calibrate())


def storage_of(deployment):
    return getattr(deployment, "platform", deployment).data_manager.storage


def run_once(
    workload_name: str,
    seed: int,
    scale: str,
    traced: bool,
    tmp: Path,
) -> dict:
    """Generate, set up, run and check one workload; return the report.

    The generated inputs are pickled to ``tmp`` by the first worker of
    a run and loaded by the later ones, which saves the generator's
    time (seconds for the URL stream) without changing a single input.
    """
    workload = WORKLOADS[workload_name]
    scenario = workload.scenario(seed, scale)
    inputs = tmp / f"inputs-{workload.dataset}-{scale}-{seed}.pkl"
    if inputs.exists():
        with open(inputs, "rb") as handle:
            stream, initial = pickle.load(handle)
    else:
        stream = list(scenario.make_stream())
        initial = scenario.make_initial_data()
        with open(inputs, "wb") as handle:
            pickle.dump((stream, initial), handle, pickle.HIGHEST_PROTOCOL)
    rows = sum(table.num_rows for table in stream)

    clock = SpeedClock()
    setup_s = []
    checkpoint_dir = None
    for __ in range(SETUPS):
        if checkpoint_dir is not None:
            shutil.rmtree(checkpoint_dir)
        checkpoint_dir = Path(tempfile.mkdtemp(dir=tmp))
        before = clock.calibrate()
        start = perf_counter()
        deployment = workload.build(scenario, checkpoint_dir)
        deployment.initial_fit(
            initial, seed=scenario.seed, **scenario.initial_fit_kwargs
        )
        elapsed = perf_counter() - start
        setup_s.append(2.0 * elapsed / (before + clock.calibrate()))

    steps = []
    slowdowns = []
    tracer = LayerTracer() if traced else None
    result = None
    error = None
    with ChunkProbe(steps) as probe:
        if tracer is not None:
            tracer.install()
            tracer.wrap(SpeedClock, "calibrate", "run.calibration")
        try:
            start = perf_counter()
            result = deployment.run(pulls(stream, clock, steps, slowdowns))
            run_wall_s = perf_counter() - start
        except Exception as exc:  # a failed step is a measured outcome
            run_wall_s = perf_counter() - start
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.uninstall()
    shutil.rmtree(checkpoint_dir)

    if result is None:
        completed = len(steps)
        problems = [f"run raised {error}"]
        digest = None
    else:
        completed = result.chunks_processed
        problems = check_outputs(
            workload, scale, seed, scenario.metric,
            probe.predictions, probe.labels, result, len(stream),
        )
        digest = output_digest(probe.predictions, result)
    # Mean slowdown over step i; a step cut short by an error has only
    # the calibration before it.
    bracket = [
        (slowdowns[i] + slowdowns[min(i + 1, len(slowdowns) - 1)]) / 2.0
        for i in range(len(slowdowns))
    ]
    # Rescaled chunk steps without their checkpoint file writes.
    step_s = [
        (t - probe.file_s.get(i, 0.0)) / f
        for i, (t, f) in enumerate(zip(steps, bracket))
    ]
    storage = storage_of(deployment).stats
    report = {
        "workload": workload.name,
        "seed": seed,
        "scale": scale,
        "traced": traced,
        "chunks": len(stream),
        "failed_chunks": len(stream) - completed,
        "rows": rows,
        "setup_s": setup_s,
        "run_wall_s": run_wall_s,
        "steps_s": sum(step_s),
        "file_s": sum(probe.file_s.values()),
        "file_writes": probe.file_writes,
        "slowdowns": clock.factors,
        "predict_s": [t / f for t, f in zip(probe.predict_s, bracket)],
        "observe_s": [
            t - p / f for t, p, f in zip(step_s, probe.predict_s, bracket)
        ],
        "train_event_s": [t / bracket[i] for i, t in probe.train_events],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "digest": digest,
        "problems": problems,
        "storage": {
            "hits": storage.feature_hits,
            "misses": storage.feature_misses,
            "evictions": storage.features_evicted,
        },
    }
    if tracer is not None:
        report["self_s"] = dict(tracer.self_s)
        report["counts"] = dict(tracer.counts)
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=("bench", "test"), default="bench")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument(
        "--tmp", type=Path, required=True,
        help="this run's scratch directory (inputs, checkpoints)",
    )
    args = parser.parse_args()
    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        print(f"repro imported from {repro.__file__}", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore", ConvergenceWarning)
    report = run_once(
        args.workload, args.seed, args.scale, args.traced, args.tmp
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
