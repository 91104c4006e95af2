(** Tree-structured top-k aggregation (the combining scheme of
    Section III-E).

    The paper builds, per slot, a binary tree with the n advertisers at the
    leaves; each internal node merges its children's top-k lists, so the
    root holds the slot's top-k bidders after O(log n) rounds of O(k)
    work.  {!tree_merge} runs that tree sequentially and reports its
    depth: it shows that the combining operator is associative and yields
    exactly the per-slot lists of {!Reduction.top_per_slot}
    (property-tested), so its output can be passed straight to
    {!Reduction.solve}.  The tree is the paper's structural claim; on one
    host the {!Reduction.select} scan computes the same lists faster. *)

val merge : count:int -> (int * float) list -> (int * float) list -> (int * float) list
(** Merge two descending top lists into the descending top-[count] of
    their union — the internal-node combine step, O(count). *)

val tree_merge : w:float array array -> count:int -> (int * float) list array * int
(** [(tops, depth)]: per-slot top-[count] lists computed by binary-tree
    combining, and the tree height (number of combining levels). *)
