class ImpureKernel:
    def _execute(self, a, b):
        a[0] = 1.0  # finding
        out = [x for x in a]
        out[0] = b[0]
        return out


class AttributeStoreKernel:
    def _execute(self, a, b):
        b.values[0] += 2  # finding
        return a


class RebindingKernel:
    def _execute(self, a):
        a = a.copy()
        a[0] = 1.0
        return a
