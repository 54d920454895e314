"""Pipeline: an ordered chain of components with two execution paths.

* :meth:`Pipeline.update_transform` — the online-training path: each
  component updates its statistics from the batch, then transforms it
  (online statistics computation, §3.1).
* :meth:`Pipeline.transform` — the pure serving / re-materialization
  path: statistics are read but never written.

Both paths run the *same* components in the same order, which is the
paper's train/serve-consistency argument (§4.3). An optional
:class:`~repro.execution.cost.CostTracker` receives per-component
charges so experiments can attribute deployment cost to preprocessing.

The prequential loop sends every chunk down both paths: once to answer
its queries, once to train on it. The leading stateless components
(the *stateless head*, e.g. the URL parser) give the same output both
times, so a pipeline remembers the head's output for the last batch it
saw and reuses it when the very same batch object comes back.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.exceptions import PipelineError
from repro.pipeline.component import Batch, Features, PipelineComponent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.execution.cost import CostTracker


class Pipeline:
    """An ordered, named chain of :class:`PipelineComponent` objects.

    Parameters
    ----------
    components:
        The chain, first component first. Names must be unique so that
        per-component statistics and cost lines are unambiguous.
    """

    def __init__(self, components: Sequence[PipelineComponent]) -> None:
        components = list(components)
        if not components:
            raise PipelineError("a pipeline needs at least one component")
        names = set()
        for component in components:
            if not isinstance(component, PipelineComponent):
                raise PipelineError(
                    f"{component!r} is not a PipelineComponent"
                )
            if component.name in names:
                raise PipelineError(
                    f"duplicate component name {component.name!r}"
                )
            names.add(component.name)
        self._components: List[PipelineComponent] = components
        self._memo: Optional[_HeadMemo] = None

    # The memo is a cache of derived data, never state: pickles, deep
    # copies and checkpoints carry the components only.
    def __getstate__(self) -> Dict[str, Any]:
        return {"_components": self._components}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._memo = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def components(self) -> List[PipelineComponent]:
        """The chain (a copy; mutate via construction, not in place)."""
        return list(self._components)

    @property
    def component_names(self) -> List[str]:
        return [c.name for c in self._components]

    def component(self, name: str) -> PipelineComponent:
        """Return the component called ``name``."""
        for candidate in self._components:
            if candidate.name == name:
                return candidate
        raise PipelineError(
            f"no component {name!r}; have {self.component_names}"
        )

    @property
    def stateful_components(self) -> List[PipelineComponent]:
        """Components whose statistics online computation maintains."""
        return [c for c in self._components if c.is_stateful]

    def __len__(self) -> int:
        return len(self._components)

    def __iter__(self) -> Iterator[PipelineComponent]:
        return iter(self._components)

    def __repr__(self) -> str:
        chain = " -> ".join(self.component_names)
        return f"Pipeline({chain})"

    # ------------------------------------------------------------------
    # Execution paths
    # ------------------------------------------------------------------
    def update_transform(
        self,
        batch: Batch,
        tracker: Optional["CostTracker"] = None,
    ) -> Batch:
        """Online path: update statistics with the batch, then transform.

        Cost accounting: every component charges a ``statistics`` line
        for the update scan and a ``transform`` line for the transform
        scan, each proportional to the batch's value count.
        """
        current, start = self._stateless_head(batch, tracker)
        for component in self._components[start:]:
            values = PipelineComponent.batch_num_values(current)
            if component.is_stateful:
                component.update(current)
                if tracker is not None:
                    tracker.charge_statistics(values, component.name)
            current = component.transform(current)
            if tracker is not None:
                tracker.charge_transform(values, component.name)
        return current

    def transform(
        self,
        batch: Batch,
        tracker: Optional["CostTracker"] = None,
    ) -> Batch:
        """Serving / re-materialization path: transform only."""
        current, start = self._stateless_head(batch, tracker)
        for component in self._components[start:]:
            values = PipelineComponent.batch_num_values(current)
            current = component.transform(current)
            if tracker is not None:
                tracker.charge_transform(values, component.name)
        return current

    def _stateless_head(
        self, batch: Batch, tracker: Optional["CostTracker"]
    ) -> Tuple[Batch, int]:
        """Run (or reuse) the leading stateless components on ``batch``.

        Returns the head's output and the position of the first
        component after it. The head stops at the first stateful
        component and never includes the terminal one, so each call
        still builds its own model-ready output. A memo hit requires
        the identical batch object (held by strong reference, so its
        ``id`` cannot be reused) and replays the head's transform
        charges, so cost trajectories do not depend on hits.
        """
        memo = self._memo
        if memo is not None and memo.batch is batch:
            if tracker is not None:
                for values, name in memo.charges:
                    tracker.charge_transform(values, name)
            return memo.output, len(memo.charges)
        current = batch
        charges: List[Tuple[int, str]] = []
        for component in self._components[:-1]:
            if component.is_stateful:
                break
            values = PipelineComponent.batch_num_values(current)
            current = component.transform(current)
            charges.append((values, component.name))
            if tracker is not None:
                tracker.charge_transform(values, component.name)
        if charges:
            self._memo = _HeadMemo(batch, current, tuple(charges))
        return current, len(charges)

    def transform_to_features(
        self,
        batch: Batch,
        tracker: Optional["CostTracker"] = None,
    ) -> Features:
        """Like :meth:`transform` but assert the output is model-ready."""
        result = self.transform(batch, tracker)
        return self._require_features(result)

    def update_transform_to_features(
        self,
        batch: Batch,
        tracker: Optional["CostTracker"] = None,
    ) -> Features:
        """Like :meth:`update_transform`, asserting model-ready output."""
        result = self.update_transform(batch, tracker)
        return self._require_features(result)

    @staticmethod
    def _require_features(result: Batch) -> Features:
        if not isinstance(result, Features):
            raise PipelineError(
                "pipeline did not terminate in a Features batch; add a "
                "terminal assembler/hasher component (got "
                f"{type(result).__name__})"
            )
        return result

    def reset(self) -> None:
        """Reset the statistics of every component."""
        for component in self._components:
            component.reset()


class _HeadMemo(NamedTuple):
    """The stateless head's output for one input batch."""

    batch: Batch
    output: Batch
    #: ``(values, component name)`` per head component, in order.
    charges: Tuple[Tuple[int, str], ...]
