"""Stage composition.

The headline algorithm (Corollary 3.6) is a three-stage pipeline:
Linial (``n -> O(Delta^2)`` colors, ``log* n + O(1)`` rounds), then the
Additive-Group algorithm (``O(Delta^2) -> O(Delta)``, ``O(Delta)`` rounds),
then the standard color reduction (``O(Delta) -> Delta + 1``, ``O(Delta)``
rounds).  :class:`ColoringPipeline` wires such sequences together: each
stage's decoded output palette becomes the next stage's input palette.

Stages may be actual stage objects or zero-argument factories (useful when a
stage's constructor wants nothing but the pipeline should build a fresh one
per run).
"""

from repro.obs import core as obs
from repro.runtime.backends import resolve_backend
from repro.runtime.results import Result

__all__ = ["PipelineResult", "ColoringPipeline"]


class PipelineResult:
    """Outcome of a full pipeline run.

    Attributes
    ----------
    colors:
        Final integer coloring, indexed by vertex.
    stage_results:
        List of ``(stage, RunResult)`` pairs in execution order.
    """

    def __init__(self, colors, stage_results):
        self.colors = colors
        self.stage_results = stage_results

    @property
    def total_rounds(self):
        """Rounds summed over every stage."""
        return sum(result.rounds_used for _, result in self.stage_results)

    @property
    def rounds(self):
        """Alias of :attr:`total_rounds` (the shared result protocol)."""
        return self.total_rounds

    @property
    def total_bits(self):
        """Bits summed over every stage."""
        return sum(result.metrics.total_bits for _, result in self.stage_results)

    @property
    def total_messages(self):
        """Messages summed over every stage."""
        return sum(result.metrics.total_messages for _, result in self.stage_results)

    @property
    def num_colors(self):
        """Distinct colors in the pipeline's final coloring."""
        return len(set(self.colors))

    def rounds_by_stage(self):
        """Return ``{stage name: rounds used}`` preserving execution order."""
        return {stage.name: result.rounds_used for stage, result in self.stage_results}

    def to_dict(self):
        """JSON-serializable summary of the whole pipeline run.

        Per-stage communication totals come from
        ``MetricsLog.to_dict(detail=False)`` — totals only, no per-round
        rows, so the payload stays O(stages) even for Delta-round runs.
        """
        return {
            "colors": list(self.colors),
            "num_colors": self.num_colors,
            "total_rounds": self.total_rounds,
            "total_messages": self.total_messages,
            "total_bits": self.total_bits,
            "stages": [
                {
                    "name": stage.name,
                    "rounds": result.rounds_used,
                    "out_palette": stage.out_palette_size,
                    "bits": result.metrics.total_bits,
                    "metrics": result.metrics.to_dict(detail=False),
                }
                for stage, result in self.stage_results
            ],
        }

    def __repr__(self):
        return "PipelineResult(rounds=%d, colors=%d)" % (
            self.total_rounds,
            self.num_colors,
        )


Result.register(PipelineResult)


class ColoringPipeline:
    """A sequence of locally-iterative stages run back to back."""

    def __init__(self, stages):
        self._stages = list(stages)
        if not self._stages:
            raise ValueError("pipeline needs at least one stage")

    @staticmethod
    def _materialize(stage_or_factory):
        from repro.runtime.algorithm import LocallyIterativeColoring

        if isinstance(stage_or_factory, LocallyIterativeColoring):
            return stage_or_factory
        if callable(stage_or_factory):
            return stage_or_factory()
        return stage_or_factory

    def run(
        self,
        graph,
        initial_coloring,
        in_palette_size=None,
        visibility=None,
        check_proper_each_round=False,
        record_history=False,
        backend="auto",
    ):
        """Run every stage in order and return a :class:`PipelineResult`.

        ``backend`` selects the engine through the
        :mod:`~repro.runtime.backends` registry: ``"auto"`` uses the
        vectorized batch engine, falling back to the scalar path per-stage
        for stages without batch kernels; ``"batch"`` / ``"reference"`` force a side.

        The run is batch-aware end-to-end: when a stage executes on the
        vectorized path its decoded int64 array feeds the next stage directly
        (no round-trip through the Python color list), the graph's cached CSR
        view is shared by every stage, and a stage that falls back to the
        scalar path transparently receives a plain list again.
        """
        kwargs = {
            "check_proper_each_round": check_proper_each_round,
            "record_history": record_history,
        }
        if visibility is not None:
            kwargs["visibility"] = visibility
        engine = resolve_backend("engine", backend)(graph, **kwargs)

        # Lists pass through uncopied (stages never mutate their input) and
        # ndarrays go straight to the batch engine; only other sequence types
        # need materializing.
        colors = initial_coloring
        if not isinstance(colors, list) and not hasattr(colors, "tolist"):
            colors = list(colors)
        palette = in_palette_size
        if palette is None:
            # Only scan for the maximum when the caller did not tell us.
            if len(colors) == 0:
                palette = 1
            elif hasattr(colors, "max"):
                palette = int(colors.max()) + 1
            else:
                palette = max(colors) + 1

        tel = obs.active()
        stage_results = []
        with tel.span(
            "pipeline.run", stages=len(self._stages), n=graph.n, m=graph.m
        ):
            for index, stage_or_factory in enumerate(self._stages):
                stage = self._materialize(stage_or_factory)
                with tel.span(
                    "pipeline.stage", stage=stage.name, index=index
                ) as stage_span:
                    result = engine.run(stage, colors, in_palette_size=palette)
                    stage_results.append((stage, result))
                    colors = (
                        result.int_colors_array
                        if result.int_colors_array is not None
                        else result.int_colors
                    )
                    if tel.enabled:
                        stage_span.set(
                            rounds=result.rounds_used,
                            in_palette=palette,
                            out_palette=stage.out_palette_size,
                            handoff=(
                                "ndarray"
                                if result.int_colors_array is not None
                                else "list"
                            ),
                        )
                    palette = stage.out_palette_size
        pipeline_result = PipelineResult(stage_results[-1][1].int_colors, stage_results)
        if tel.enabled:
            tel.event(
                "pipeline.run",
                stages=[
                    {
                        "name": stage.name,
                        "rounds": result.rounds_used,
                        "out_palette": stage.out_palette_size,
                        "messages": result.metrics.total_messages,
                        "bits": result.metrics.total_bits,
                    }
                    for stage, result in stage_results
                ],
                total_rounds=pipeline_result.total_rounds,
                total_messages=pipeline_result.total_messages,
                total_bits=pipeline_result.total_bits,
                num_colors=pipeline_result.num_colors,
            )
        return pipeline_result
