(** The [Sim] backend: the in-process simulated interconnect
    ({!Cluster}) packaged as a first-class {!Transport.t}. *)

(** Witness that {!Cluster} satisfies the transport signature. *)
module Backend : Transport.S with type t = Cluster.t

(** Erase an existing cluster into a transport. *)
val pack : Cluster.t -> Transport.t

(** [create ?transport ~n metrics] is {!Cluster.create} followed by
    {!pack}: the raw simulated interconnect.  For reliable delivery
    stack {!Reliable.wrap} on it. *)
val create :
  ?transport:Cluster.transport -> n:int -> Rmi_stats.Metrics.t -> Transport.t
