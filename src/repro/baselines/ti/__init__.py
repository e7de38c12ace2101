"""The MSB and Chlonos user logic of the time-independent algorithms, one
module per ICM module of `repro.algorithms.ti` (paper Sec. VII-A3)."""
