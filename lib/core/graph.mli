open! Import

(** Trace graphs: the node set on which happens-before is computed.

    The Race Detector "constructs a graph representation of the trace
    with operations as nodes"; as the optimisation of Section 6,
    contiguous memory accesses without any intervening synchronization
    operation are modelled by a single node, which reduced the node count
    to 1.4–24.8 % of the trace length in the paper's experiments without
    sacrificing precision.

    A maximal run of [read]/[write] operations of one thread, all inside
    the same asynchronous task (or all outside any task), with no other
    operation of that thread in between, forms one {e access block}
    node; every other operation is its own {e anchor} node.  Accesses in
    one block share their happens-before constraints with every other
    node, because no happens-before rule starts or ends at a plain
    access: orderings enter and leave a thread only at synchronization
    anchors.  [enable] operations are anchors (the ENABLE rules start
    edges there), so they break access runs. *)

type t

val build : coalesce:bool -> Trace.t -> t
(** With [~coalesce:false] every operation is its own node (used by the
    ablation benchmarks and the differential tests). *)

val trace : t -> Trace.t

val node_count : t -> int

val node_of_pos : t -> int -> int
(** The node containing a trace position. *)

val thread_index_of_node : t -> int -> int
(** {!Trace.thread_index} of the node's positions. *)

val task_index_of_node : t -> int -> int
(** {!Trace.enclosing_index} of the node's positions: the enclosing
    asynchronous task they all share. *)

val first_pos : t -> int -> int

val last_pos : t -> int -> int

val nodes_of_thread_index : t -> int -> int list
(** Nodes executed by the thread of the trace's thread index,
    ascending. *)

val nodes_of_task_index : t -> int -> int list
(** Nodes belonging to the execution of the task of the trace's task
    index, ascending ([begin] and [end] included). *)

val thread_index : t -> Ident.Thread_id.t -> int
(** A dense 0-based index for the thread, for mask tables: the trace's
    {!Trace.index_of_thread}.
    @raise Invalid_argument for a thread that executes nothing. *)

val thread_count : t -> int
