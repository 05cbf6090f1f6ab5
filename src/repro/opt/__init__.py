"""Exact search for recourse 0-1 programs.

LEWIS recourse (Section 4.2) and the LinearIP baseline (Section 5.4)
solve the same multiple-choice covering program: one new value or none
per actionable attribute, a cost to minimise and one linear "gain >=
needed" row.  :mod:`repro.opt.parametric` holds its solve-ready form
(:class:`~repro.opt.parametric.SignatureSkeleton`), the parametric LP
root bound, the greedy cover and the exact depth-first search that
:mod:`repro.core.recourse_kernel` combines into the one exact solver.
No scipy: the HiGHS MILP it is checked against is a test oracle
(``tests/oracles.py``).
"""
