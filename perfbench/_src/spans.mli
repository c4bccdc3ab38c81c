(** Benchmark-side spans for the traced run.

    A span is recorded around each call the benchmark makes into a layer
    of the program: name, start, end, parent span and request (op) id,
    all on the {!Timing} clock.  Spans are kept in memory and written out
    once, when the run ends.  Recording is off until {!set_enabled}; a
    disabled {!with_span} only runs its thunk. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root *)
  req : int;  (** the op (request) the span belongs to; [-1] if none *)
  name : string;
  t0 : int64;
  t1 : int64;
}

val set_enabled : bool -> unit
val enabled : unit -> bool

val with_span : ?parent:int -> ?req:int -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span.  [parent] defaults to the innermost
    span open on the calling domain; [req] defaults to the parent's. *)

val current : unit -> int
(** Id of the innermost span open on the calling domain; [-1] if none.
    Lets a span opened on another domain name it as parent. *)

val all : unit -> span list
(** Every recorded span, in id order. *)

val dur_ms : span -> float

val self_ms : span list -> (int, float) Hashtbl.t
(** Self time of every span: its duration minus the union of its
    children's intervals (clipped to the span). *)

val write_jsonl : string -> unit
(** One JSON object per span. *)
