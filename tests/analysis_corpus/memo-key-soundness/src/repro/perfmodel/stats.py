import time

from .memo import memoised


@memoised("stats")
def build_stats(spec):
    return _stamp(spec)


def _stamp(spec):
    return (spec, time.time())  # finding
