(** The differential-gate substrate shared by every experiment gate
    (pipeline, crash, chaos, tiers, wirecost, alloc, load, transport)
    and by [bench --wire-json].

    A gate runs workloads x variants and reports one {!row} per
    pairing: named deterministic counters, digests and timing values.
    Its verdict is a list of {!check}s of two kinds, "values equal"
    ({!equal}) and "bound holds" ({!bound}).  One renderer and one JSON
    writer serve every gate; {!validate} checks a written report
    against a gate's key set. *)

type value =
  | Int of int
  | Num of int * float  (** decimals shown, value *)
  | Text of string  (** digests, names *)
  | Flag of bool

(** One (workload, variant) pairing. *)
type row = {
  workload : string;
  variant : string;
  fields : (string * value) list;
}

(** A check either gates the verdict, or is reported with the reason it
    cannot gate (the load gate's throughput bound on a host without
    the cores). *)
type enforcement = Enforced | Reported of string

type check = {
  name : string;  (** JSON key and the name a failure is reported under *)
  what : string;  (** one-line description *)
  enforcement : enforcement;
  items : (string * bool) list;  (** each compared item and whether it held *)
}

type report = {
  gate : string;
  title : string;
  facts : (string * value) list;  (** scalar results and parameters *)
  rows : row list;
  checks : check list;
}

(** [equal name what [(where, got, want); ...]] holds when every [got]
    equals its [want] (floats by [Float.equal]). *)
val equal :
  ?enforcement:enforcement -> string -> string -> (string * value * value) list ->
  check

type op = Le | Lt | Ge | Gt

(** [bound name what [(where, measured, op, limit); ...]] holds when
    every [measured op limit] does. *)
val bound :
  ?enforcement:enforcement -> string -> string ->
  (string * float * op * float) list -> check

(** Every item held (an empty check holds). *)
val holds : check -> bool

(** Names of the enforced checks that do not hold, in report order. *)
val failed : report -> string list

(** No enforced check failed. *)
val ok : report -> bool

(** Lookups by name; raise [Invalid_argument] when absent. *)
val check : report -> string -> check

val fact : report -> string -> value
val field : row -> string -> value

(** How a value prints in tables and JSON. *)
val show : value -> string

(** Title, one ASCII table per run of rows sharing field names, one
    line per fact, one line per check ([[ok]], [[FAIL]] naming the
    failed items, [[info]] for a reported-only check, [[n/a]] for a
    check with nothing to compare). *)
val render : report -> string

(** [{"gate", "title", "ok", <facts>, <check name>: holds, "rows": [...]}]
    where every row object carries "workload", "variant" and its
    fields. *)
val to_json : report -> string

(** [validate ~gate ~keys ~row_keys ?rows text] checks a {!to_json}
    document: it parses, names [gate], has "title", "ok", "rows" and
    every key in [keys], every row has "workload", "variant" and every
    key in [row_keys], there are exactly [rows] rows when given, and
    "ok" is true. *)
val validate :
  gate:string -> keys:string list -> row_keys:string list -> ?rows:int ->
  string -> (unit, string) result

(** One measured region. *)
type sample = {
  wall_s : float;  (** on {!Rmi_net.Clock} *)
  minor_words : float;  (** exact: [Gc.minor_words] before and after *)
  major_words : float;
      (** [Gc.quick_stat] deltas, which advance only at minor
          collections *)
  promoted_words : float;
}

(** [measure f] runs [f] once and samples the clock and the GC around
    it.  The minor-word count does not depend on what ran before. *)
val measure : (unit -> unit) -> sample
