(** Fixed-capacity sets of small integers backed by a [Bytes.t] bit vector.

    Used for the live-in/live-out sets of the liveness analysis and the
    transient live sets of interference-graph construction. Capacity is fixed
    at creation; elements are [0 .. capacity-1]. Storage is
    [(capacity+7)/8] bytes; the whole-set operations ({!cardinal},
    {!union_into}, {!diff_into}, {!inter_into}, {!iter}, {!is_empty}) walk
    it as 64-bit words, finishing the trailing bytes one at a time, and
    allocate nothing. *)

type t

val create : int -> t
(** [create n] is the empty set with capacity [n]. *)

val capacity : t -> int

val mem : t -> int -> bool
(** Membership test, O(1). *)

val add : t -> int -> unit
(** Insert an element; no-op if already present. *)

val remove : t -> int -> unit
(** Delete an element; no-op if absent. *)

val clear : t -> unit
(** Empty the set in place, keeping its capacity. *)

val fill : t -> unit
(** Make the set full in place: every element [0 .. capacity-1], and
    nothing else. O(capacity/8). *)

val copy : t -> t
(** An independent set with the same contents and capacity. *)

val cardinal : t -> int
(** Number of elements. O(capacity/64). *)

val equal : t -> t -> bool
(** Structural equality of contents; capacities must match. *)

val union_into : dst:t -> t -> bool
(** [union_into ~dst src] adds all of [src] to [dst]; returns [true] iff
    [dst] changed. Capacities must match. O(capacity/64). *)

val diff_into : dst:t -> t -> unit
(** [diff_into ~dst src] removes all of [src] from [dst]. O(capacity/64). *)

val inter_into : dst:t -> t -> unit
(** [inter_into ~dst src] keeps in [dst] only elements also in [src].
    O(capacity/64). *)

val blit : src:t -> dst:t -> unit
(** Overwrite [dst] with the contents of [src]. *)

val iter : (int -> unit) -> t -> unit
(** Iterate elements in increasing order. O(capacity/64) plus one call per
    element: all-zero words are skipped. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

val elements : t -> int list
(** The elements in increasing order. *)

val is_empty : t -> bool
(** [true] iff the set has no elements, O(capacity/64). *)

val of_list : int -> int list -> t
(** [of_list n xs] is the capacity-[n] set of the elements of [xs]. *)

val memory_bytes : t -> int
(** Bytes of backing storage, for the memory-accounting experiments:
    [(capacity+7)/8]. *)

val pp : Format.formatter -> t -> unit
