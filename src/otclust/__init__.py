"""Sparse-support approximation of discrete distributions under squared
Euclidean transport cost, with convex clustering built on top."""
