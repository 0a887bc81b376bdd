"""Evolving-graph embeddings with attention-carried weights and distillation.

The package models a live event as a run of weighted graph snapshots,
trains a chain of per-snapshot graph convolutions whose first-layer
weights are propagated by multi-head attention, distills the result into
a smaller student, and evaluates both on predicting the weights of links
that appear in the following snapshot.
"""

__version__ = "0.1.0"
