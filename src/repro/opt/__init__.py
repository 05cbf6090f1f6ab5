"""Bounds and packed arrays for recourse 0-1 programs.

LEWIS recourse (Section 4.2) and the LinearIP baseline (Section 5.4)
solve the same multiple-choice covering program: one new value or none
per actionable attribute, a cost to minimise and one linear "gain >=
needed" row.  :mod:`repro.opt.parametric` holds its solve-ready form
(:class:`~repro.opt.parametric.SignatureSkeleton`), the padded arrays of
many skeletons (:class:`~repro.opt.parametric.SkeletonPack`), the
parametric LP bound and the greedy cover.  The one exact solver, the
level-by-level frontier search with its written tie rule, is
:mod:`repro.core.recourse_kernel`.  No scipy: the HiGHS MILP and the
depth-first recursion it is checked against are test oracles
(``tests/oracles.py``).
"""
