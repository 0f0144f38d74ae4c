"""The kernel-based execution (KBE) baseline.

This is the conventional GPU query co-processing model the paper compares
against (He et al. [15, 16], OmniDB [40]): every relational operator
expands into its multi-kernel form (selection = map + prefix sum +
scatter, probe = count + prefix sum + scatter, aggregation = materialize +
prefix scan), each kernel runs on the whole device *one at a time*, and
every kernel's output is explicitly materialized in global memory — the
"memory ping-pong" of Section 2.2.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..gpu import DataLocation, KernelLaunch, Simulator
from ..plans import ExecutionContext, KernelTemplate, Pipeline
from ..plans.physical import StreamOp
from ..core.base import EngineBase, workgroups_for

__all__ = ["KBEEngine"]


class KBEEngine(EngineBase):
    """One kernel at a time, full materialization between kernels."""

    name = "KBE"

    #: Template selectivities a kernel keeps over the measured one: flag
    #: maps and prefix sums (1.0) touch every tuple whatever survives.
    kept_selectivities: Tuple[float, ...] = (1.0,)

    def _run_pipeline(
        self,
        pipeline: Pipeline,
        simulator: Simulator,
        context: ExecutionContext,
    ) -> None:
        skip_kernels = self._skips_kernels(pipeline)
        _, rows_in, rows_out, sink_rows = self._functional_pass(
            pipeline, [self._source_batch(pipeline, context)], context
        )
        if skip_kernels:
            return
        launches = [
            (template, n_in, self._actual_selectivity(n_in, n_out))
            for op, n_in, n_out in zip(pipeline.ops, rows_in, rows_out)
            for template in self._op_kernels(op)
        ]
        launches += [
            (template, sink_rows, None)
            for template in pipeline.sink.kbe_kernels(rows=sink_rows)
        ]
        # Only the very first kernel streams the pipeline's source; every
        # later kernel reloads a freshly materialized intermediate — the
        # memory ping-pong of Section 2.2.
        reads_intermediate = pipeline.source_table is None
        for template, tuples, actual in launches:
            self._run_kernel(
                simulator, context, template, tuples, actual,
                reads_intermediate,
            )
            reads_intermediate = True

    def _skips_kernels(self, pipeline: Pipeline) -> bool:
        """Whether ``pipeline`` runs without launching any kernel."""
        return False

    def _op_kernels(self, op: StreamOp) -> List[KernelTemplate]:
        """One operator's kernel expansion."""
        return op.kbe_kernels()

    def _run_kernel(
        self,
        simulator: Simulator,
        context: ExecutionContext,
        template: KernelTemplate,
        rows_in: int,
        actual_selectivity: Optional[float],
        input_is_intermediate: bool = False,
    ) -> None:
        """Launch one KBE kernel exclusively, with launch overhead.

        Kernels whose template selectivity is in
        :attr:`kept_selectivities` keep it; data-reducing kernels use the
        measured selectivity when one is available.
        """
        selectivity = template.est_selectivity
        if (
            actual_selectivity is not None
            and template.est_selectivity not in self.kept_selectivities
        ):
            selectivity = actual_selectivity

        aux_ws = self._aux_working_set(context, template)

        launch = KernelLaunch(
            spec=template.spec,
            tuples=rows_in,
            workgroups=workgroups_for(rows_in),
            in_bytes_per_tuple=template.in_width,
            out_bytes_per_tuple=template.out_width,
            selectivity=selectivity,
            input_location=DataLocation.GLOBAL,
            output_location=DataLocation.GLOBAL,
        )
        simulator.launch_overhead()
        simulator.run_exclusive(
            launch,
            aux_reads_per_tuple=template.aux_reads_per_tuple,
            aux_working_set_bytes=aux_ws,
            input_is_intermediate=input_is_intermediate,
        )
