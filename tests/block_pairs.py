"""The block-pair systems that make up the relation system of a Jordan
assignment, each built by ``quiverstrata.linsys.assemble_system``.

A Jordan block only shifts indices within itself, so up to the order of
rows and columns the system of an assignment is the direct sum of one
system per (target block, source block) pair of every vertex pair that
carries relations.  A rank of the whole system, over Q or over F_p, is the
sum of the ranks of these parts.  Each relation enters as the split terms
of ``quiverstrata.linsys.split_terms``, as in the part-pair table.
"""
from quiverstrata.linsys import assemble_system, split_terms


def block_systems(pres, ja):
    """One system per block pair of ``ja``, repeated as often as the pair
    occurs."""
    relations = {}
    for rel in pres.relations:
        relations.setdefault((rel.target, rel.source), []).append(rel)
    for (t, s), rels in relations.items():
        arrows = [x.name for x in pres.quiver.non_loop_arrows
                  if (x.target, x.source) == (t, s)]
        for a in ja.partition(t).parts:
            for b in ja.partition(s).parts:
                yield assemble_system(len(arrows), [split_terms(r, arrows) for r in rels],
                                      a, b)
