from .simulated import GoodKernel, LonelyKernel  # finding

SPMM_KERNELS = {"good": GoodKernel, "lonely": LonelyKernel}
SDDMM_KERNELS = {}
