from ..plans.functional import expand_vector_rows


def spmm(a, b):
    rows, cols = expand_vector_rows(a)
    return rows, cols
