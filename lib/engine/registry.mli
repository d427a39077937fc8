(** Engine registry: the four runtimes (plus comparison flavors) wrapped
    as first-class {!Engine.S} modules, keyed by name. The CLI and
    benchmarks dispatch through this instead of hand-written matches. *)

(** Build a registry with the given topology baked into each engine.
    Entries: ["graphdance"], ["banyan-like"], ["gaia-like"], ["bsp"],
    ["tigergraph-role"], ["single-node"], ["local"]. *)
val make :
  ?cluster_config:Cluster.config ->
  ?channel_config:Channel.config ->
  unit ->
  (string * (module Engine.S)) list

(** [make ()] with default topology. *)
val default : (string * (module Engine.S)) list

val names : ?registry:(string * (module Engine.S)) list -> unit -> string list

(** ["async"] resolves to ["graphdance"]. *)
val find : ?registry:(string * (module Engine.S)) list -> string -> (module Engine.S) option

(** Like {!find} but raises [Invalid_argument] listing the valid names. *)
val find_exn : ?registry:(string * (module Engine.S)) list -> string -> (module Engine.S)
