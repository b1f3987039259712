"""loop2mesh: learn dense 2D mesh point clouds around closed airfoil loops.

A small fully-connected generator maps a fixed-length boundary loop to a
point cloud, trained with a composite of Chamfer distance, a spread
(repulsion) reward, and an interior-exclusion penalty. Evaluation compares
kernel density estimates of predicted and reference clouds via KL divergence.

The modules are the import surface: ``loop2mesh.train``, ``loop2mesh.losses``
and so on; the package itself only carries the version.
"""

__version__ = "0.1.0"
