"""driftscope: subgroup-level model performance drift monitoring.

Mine interpretable subgroups from reference data once, then monitor a model's
performance within every subgroup batch by batch using popcounts over packed
member bitmaps and Beta-posterior Welch statistics, with ranked, pruned, and
item-attributed drift reports.
"""

__version__ = "0.1.0"
