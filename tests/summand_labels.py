"""Label the summands of a decomposition by isomorphism with reference modules."""

from sl2frob import homology


def identify_summands(dec, references) -> list:
    """Each summand's label: the first isomorphic reference of equal dimension, else None."""
    labels = []
    for s in dec.summands:
        labels.append(next((label for label, ref in references
                            if s.dim == ref.dim
                            and homology.is_isomorphic(s, ref) is not None), None))
    return labels
