"""Label the summands of a decomposition by isomorphism with reference modules."""

from sl2frob import homology


def identify_summands(split, references) -> list:
    """The label of each summand of a split (its (inclusion, summand) pairs): the first
    isomorphic reference of equal dimension, else None."""
    labels = []
    for _, s in split:
        labels.append(next((label for label, ref in references
                            if s.dim == ref.dim
                            and homology.is_isomorphic(s, ref) is not None), None))
    return labels
