"""Spherical flexibility of graphs.

Decides which connected graphs admit edge lengths making them flexible on
the unit sphere (via no-alternating-path colorings), mechanizes the cut
and table combinatorics behind the classification of K(3,3) motions, and
constructs or numerically traces the motions themselves.
"""
