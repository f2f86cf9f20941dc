class LaunderedKernel:
    def _execute(self, a):
        _scale_in_place(a)  # finding
        return a


def _scale_in_place(buf):
    buf[0] = buf[0] * 2.0
