"""Per-layer self-time tracing from outside the program.

:class:`LayerTracer` wraps the public methods of the ``pipeline``,
``ml``, ``execution``, ``core``, ``data`` and ``reliability`` layers
for the length of one traced run and folds every call into a flat table
of self times and counts. Nothing under ``src/`` is edited: the
wrappers are installed on the classes at run time and removed again
by :meth:`LayerTracer.uninstall`.

Two rules keep the numbers honest:

* A method is wrapped once, on the class whose ``__dict__`` defines
  it. An inherited method (the taxi ``hour``/``weekday`` extractors
  share ``ColumnExtractor.transform``) is therefore timed once per
  call, and instances stay picklable because nothing is stored on
  them — checkpoint writes pickle the deployed pipeline.
* A call's self time is its wall time minus the wall time of the
  wrapped calls it made. Summed over all keys, self times partition
  the traced region without double counting. ``run.py`` counts the
  self time of the loop and routing wrappers (``core.loop``,
  ``core.dispatch``, ``core.proactive_run``) as unattributed: it is
  the code between layer calls that no layer wrapper covers.

Pipeline time is keyed by the component's ``name`` attribute, not its
class, so two components of one class stay apart.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import scipy.sparse as sp

import repro.core.proactive as proactive_module
import repro.pipeline.components  # noqa: F401  (registers every component class)
import repro.reliability.checkpoint as checkpoint_module
from repro.core.deployment.base import Deployment
from repro.core.pipeline_manager import PipelineManager
from repro.core.platform import ContinuousDeploymentPlatform
from repro.core.proactive import ProactiveTrainer
from repro.data.manager import DataManager
from repro.data.storage import ChunkStorage
from repro.execution.cost import CostTracker
from repro.execution.engine import LocalExecutionEngine
from repro.ml.models.base import LinearSGDModel
from repro.ml.optim.base import Optimizer
from repro.ml.sgd import SGDTrainer
from repro.pipeline.component import PipelineComponent
from repro.pipeline.pipeline import Pipeline

#: (owner class, method names, self-time key). Each key is one row of
#: the self-time table; several methods may share a key.
FIXED_KEYS: List[Tuple[type, Tuple[str, ...], str]] = [
    (Deployment, ("run",), "core.loop"),
    (PipelineManager, ("online_step",), "core.online_step"),
    (PipelineManager, ("full_retrain",), "core.full_retrain"),
    (
        PipelineManager,
        ("process_training_chunk", "answer_queries", "sample_for_training"),
        "core.dispatch",
    ),
    (ContinuousDeploymentPlatform, ("predict", "observe"), "core.dispatch"),
    (ProactiveTrainer, ("run",), "core.proactive_run"),
    (Pipeline, (
        "update_transform",
        "transform",
        "update_transform_to_features",
        "transform_to_features",
    ), "pipeline.chain"),
    (SGDTrainer, ("step",), "ml.train_step"),
    (SGDTrainer, ("train",), "ml.train_full"),
    (LinearSGDModel, ("gradient",), "ml.gradient"),
    (Optimizer, ("step",), "ml.optimizer_step"),
    (LocalExecutionEngine, (
        "online_pass",
        "transform_only",
        "serve_transform",
        "train_step",
        "train_full",
        "predict",
        "predict_batch",
        "read_chunk",
        "total_cost",
    ), "execution.engine"),
    (CostTracker, (
        "charge_transform",
        "charge_statistics",
        "charge_training",
        "charge_prediction",
        "charge_disk_read",
        "total",
    ), "execution.cost"),
    (DataManager, ("ingest",), "data.ingest"),
    (DataManager, ("store_features",), "data.store_features"),
    (DataManager, ("sample",), "data.sample"),
    (ChunkStorage, ("get_raw",), "data.get_raw"),
    (checkpoint_module.CheckpointStore, ("write",), "reliability.checkpoint_write"),
]


def _matrix_values(matrix) -> int:
    if sp.issparse(matrix):
        return int(matrix.nnz)
    return int(matrix.size)


def _class_tree(base: type) -> List[type]:
    """``base`` and every imported subclass of it, base first."""
    seen: List[type] = []
    pending = [base]
    while pending:
        cls = pending.pop(0)
        if cls not in seen:
            seen.append(cls)
            pending.extend(cls.__subclasses__())
    return seen


class Patches:
    """Class- and module-level attribute patches that can be undone."""

    def __init__(self) -> None:
        #: (owner, attribute, original) for every patched attribute.
        self.patched: List[Tuple[object, str, object]] = []

    def patch(self, owner, name: str, replacement) -> None:
        """Replace ``owner.name``; only attributes ``owner`` defines."""
        self.patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def uninstall(self) -> None:
        """Put every original attribute back, newest patch first."""
        while self.patched:
            owner, name, original = self.patched.pop()
            setattr(owner, name, original)

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


class LayerTracer(Patches):
    """Installs self-time wrappers; collects ``self_s`` and ``counts``.

    Use as a context manager around one deployment run::

        with LayerTracer() as tracer:
            result = deployment.run(stream)
        tracer.self_s["ml.gradient"]
    """

    def __init__(self) -> None:
        super().__init__()
        #: Self time in seconds per key.
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Event counts per name (calls, rows, values, bytes, ...).
        self.counts: Dict[str, int] = defaultdict(int)
        # One frame per active wrapped call: [child wall, key].
        self._stack: List[list] = []

    # ------------------------------------------------------------------
    def install(self) -> "LayerTracer":
        if self.patched:
            raise RuntimeError("tracer is already installed")
        for owner, methods, key in FIXED_KEYS:
            for method in methods:
                self.wrap(owner, method, key)
        for cls in _class_tree(LinearSGDModel):
            if "predict" in cls.__dict__:
                self.wrap(cls, "predict", "ml.predict")
        for cls in _class_tree(PipelineComponent):
            for method in ("transform", "update"):
                function = cls.__dict__.get(method)
                if function is None or getattr(
                    function, "__isabstractmethod__", False
                ):
                    continue
                self._patch_component(cls, method)
        self._patch_module_function(
            proactive_module, "combine_chunks", "core.combine"
        )
        self._patch_module_function(
            checkpoint_module,
            "atomic_write_bytes",
            "reliability.file_write",
            self._count_bytes,
        )
        return self

    def __enter__(self) -> "LayerTracer":
        return self.install()

    # ------------------------------------------------------------------
    def _timed(
        self,
        original: Callable,
        key_of: Callable[[tuple], str],
        on_return: Optional[Callable] = None,
    ) -> Callable:
        stack = self._stack
        self_s = self.self_s
        counts = self.counts

        @functools.wraps(original)
        def traced(*args, **kwargs):
            key = key_of(args)
            nested = bool(stack) and stack[-1][1] == key
            frame = [0.0, key]
            stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self_s[key] += elapsed - frame[0]
                if not nested:
                    counts[key + ".calls"] += 1
            if on_return is not None:
                on_return(key, args, result)
            return result

        return traced

    def wrap(self, owner: type, name: str, key: str) -> None:
        """Time ``owner.name`` under ``key`` until :meth:`uninstall`."""
        on_return = {
            "ml.gradient": self._count_gradient,
            "ml.train_full": self._count_iterations,
        }.get(key)
        original = owner.__dict__[name]
        self.patch(
            owner, name, self._timed(original, lambda args: key, on_return)
        )

    def _patch_component(self, cls: type, method: str) -> None:
        original = cls.__dict__[method]
        suffix = "." + method

        def key_of(args) -> str:
            return "pipeline." + args[0].name + suffix

        on_return = self._count_rows if method == "transform" else None
        self.patch(cls, method, self._timed(original, key_of, on_return))

    def _patch_module_function(
        self,
        module,
        name: str,
        key: str,
        on_return: Optional[Callable] = None,
    ) -> None:
        original = module.__dict__[name]
        self.patch(
            module, name, self._timed(original, lambda args: key, on_return)
        )

    # ------------------------------------------------------------------
    def _count_rows(self, key: str, args: tuple, result) -> None:
        self.counts[key + ".rows_in"] += args[1].num_rows
        self.counts[key + ".rows_out"] += result.num_rows

    def _count_bytes(self, key: str, args: tuple, result) -> None:
        self.counts["reliability.checkpoint_bytes"] += len(args[1])

    def _count_gradient(self, key: str, args: tuple, result) -> None:
        self.counts["ml.gradient.values"] += _matrix_values(args[1])

    def _count_iterations(self, key: str, args: tuple, result) -> None:
        self.counts["ml.train_full.iterations"] += int(result.iterations)
