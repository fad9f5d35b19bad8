"""Generalized category discovery over pre-extracted embeddings.

Pipeline: a kNN class graph regularizes per-class semantic embeddings (GCN),
a projector maps visual embeddings into that space under three metric losses,
and a constrained semi-supervised k-means clusters labeled plus unlabeled
samples; Hungarian-matched accuracy scores the result. Each stage is imported
from the submodule that implements it (``graphgcd.trainer.train``,
``graphgcd.clustering.semisup_kmeans``, ...).
"""

__version__ = "0.1.0"
