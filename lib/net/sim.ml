module Backend = Cluster

let pack (c : Cluster.t) : Transport.t = Transport.pack (module Cluster) c
let create ?transport ~n metrics = pack (Cluster.create ?transport ~n metrics)
