"""The TGB and GoFFish variants of the time-dependent algorithms, one
module per ICM module of `repro.algorithms.td` (paper Sec. VII-A3)."""
