from .. import plans as _plans


class PlannedKernel:
    def _execute_simulated(self, a, b):  # finding
        plan = _plans.spmm_plan(self, a)
        return _plans.execute_spmm(plan, a, b)


class UntestedTwinKernel:
    def _run_untested(self, a, b):  # finding
        return _plans.execute_spmm(_plans.spmm_plan(self, a), a, b)

    def _run_untested_reference(self, a, b):
        return a @ b


class TestedTwinKernel:
    def _run_tested(self, a, b):
        return _plans.execute_spmm(_plans.spmm_plan(self, a), a, b)

    def _run_tested_reference(self, a, b):
        return a @ b
