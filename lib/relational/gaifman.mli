(** Gaifman graphs, distances, spheres (Section 3).

    Two elements are adjacent in the Gaifman graph of G iff they co-occur in
    some tuple of some relation.  The locality machinery of Theorem 3 (and
    the class STRUCT_k of structures with Gaifman graph of degree <= k)
    lives on top of this module. *)

type t
(** A CSR (compressed sparse row) view of the Gaifman graph of one
    structure: a flat sorted neighbor array plus per-element offsets, so
    traversal allocates nothing. *)

val of_structure : Structure.t -> t

val of_tuples : n:int -> Tuple.t list -> t
(** The Gaifman graph of an explicit tuple list over universe [0..n-1] —
    the co-occurrence graph of an induced substructure given its member
    tuples, without materializing the substructure. *)

val refresh : Structure.t -> prev:t -> dirty:int list -> t
(** [refresh g ~prev ~dirty] is [of_structure g], computed by copying every
    adjacency row of [prev] whose element is not in [dirty] (an edge can only
    change when a tuple containing both endpoints is edited, and every edit
    dirties its tuple's elements — see {!Structure.apply_edit}).  [prev] must
    be the Gaifman graph of the pre-edit structure and [dirty] the dirty set
    the edits reported; elements outside [prev]'s universe count as dirty. *)

val size : t -> int

val neighbors : t -> int -> int list
(** Sorted, without self-loops or duplicates. *)

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** Iterate a row in ascending order without materializing a list. *)

val degree : t -> int -> int

val degrees : t -> int array
(** All degrees, indexed by element. *)

val max_degree : t -> int
(** The k for which the structure belongs to STRUCT_k (0 for edgeless). *)

val reach : t -> sources:int list -> bound:int -> int list
(** Multi-source bounded BFS: all elements at distance [<= bound] from some
    source ([bound < 0] means unbounded), sorted.  Out-of-range sources are
    ignored — convenient when probing an old graph with post-edit ids. *)

val distance : t -> int -> int -> int option
(** BFS distance; [None] when disconnected (the paper's d(a,b) = infinity). *)

val sphere : t -> rho:int -> int -> int list
(** [sphere g ~rho a] is S_rho(a) = elements at distance <= rho, sorted. *)

val sphere_array : t -> rho:int -> int -> int array
(** [sphere] as a sorted array — the representation the neighborhood
    indexer's per-element cache stores. *)

val sphere_tuple : t -> rho:int -> Tuple.t -> int list
(** S_rho of a tuple: union of the element spheres, sorted. *)

val connected_components : t -> int list list

val component_labels : t -> int array * int
(** [(comp, ncomps)] with [comp.(x)] the dense id of [x]'s connected
    component; ids follow the order of {!connected_components} (each
    component numbered at its lowest element).  The serving layer
    reports [ncomps] for every stored dataset (DESIGN.md 5.11). *)

val local_groups : t -> max_size:int -> int list array
(** Deterministic partition of the universe into {e Gaifman-local groups}:
    each group is a connected (in this graph) set of at most [max_size]
    elements, grown by BFS from the lowest unassigned element, neighbors
    in ascending order; isolated elements form singleton groups.  Groups
    never span connected components, so by Gaifman locality an edit can
    only dirty the groups whose elements its dirty set touches (plus
    their rho-spheres).  The recovery layer partitions its integrity
    certificates along these groups.  Sorted members, groups in seed
    (first-element) order; every element belongs to exactly one group. *)

val sphere_walk : t -> rho:int -> tree:bool -> int -> int array * bool
(** [sphere_array] plus, when [tree], whether the sphere induces a tree
    in this graph (edges between two elements at distance [rho]
    included), decided in the same walk; [false] otherwise. *)

val edge_slots : t -> int
(** Number of directed edges: each edge [{a, b}] is two slots, one in
    [a]'s row and one in [b]'s, numbered densely from 0. *)

val edge_slot : t -> int -> int -> int
(** [edge_slot g a b] is the slot of [b] in [a]'s row, for per-edge
    data in a flat array.  @raise Not_found if [a] and [b] are not
    adjacent. *)

val iteri_neighbors : t -> int -> (int -> int -> unit) -> unit
(** [iter_neighbors] passing each neighbor's slot first. *)

val bfs : t -> int -> bound:int -> (int -> int -> unit) -> int array
(** [bfs g a ~bound visit] walks from [a] over a fresh distance array,
    calling [visit x d] once per element at distance [d <= bound] (every
    reachable element when [bound < 0]) in distance order, and returns
    the distance array ([-1] for every element not visited).  It is the
    plain walk that {!reach} and {!sphere_walk} are tested against. *)

val isort : int array -> int -> int -> unit
(** [isort a lo hi] sorts [a.(lo..hi)] in place by insertion: the sort
    for short int rows (sphere walks, refinement signatures). *)
