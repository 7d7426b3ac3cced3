"""Toolkit for probing the layers of a conv/recurrent CTC speech model.

Pipeline: synthesize (or import) a frame-labelled corpus, train a small
DeepSpeech2-style network with CTC, tap every layer's per-frame output,
then measure how much phone information each tap carries via probing
classifiers, clustering, and confusion analysis.
"""

import os

# One BLAS thread, whatever the environment asks: a GEMM split over
# threads rounds differently, and outputs are byte-identical for a config
# and seed only at a fixed thread count.  Set before numpy loads its BLAS,
# so it holds only when ctcprobe is imported before numpy.
os.environ.update(dict.fromkeys((
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"), "1"))

__version__ = "0.1.0"
