(* Bundle of the three per-run collectors, threaded through engines as a
   single optional argument. The disabled bundle is a shared singleton
   whose components are each the no-op variant, so an engine can hold a
   recorder unconditionally and the per-step cost when observability is
   off is one flag check. *)

type t = {
  trace : Trace.t;
  flight : Flight.t;
  opstats : Opstats.t;
  causal : Causal.t;
  enabled : bool;
}

let disabled =
  {
    trace = Trace.disabled;
    flight = Flight.disabled;
    opstats = Opstats.disabled;
    causal = Causal.disabled;
    enabled = false;
  }

(* Causal tracing stays off by default even when the rest of the bundle
   is on: context threading allocates a DAG node per hand-off, which the
   span/flight consumers don't need to pay for. *)
let create ?trace_capacity ?flight_capacity ?(causal = false) ?causal_capacity () =
  {
    trace = Trace.create ?capacity:trace_capacity ();
    flight = Flight.create ?capacity:flight_capacity ();
    opstats = Opstats.create ();
    causal = (if causal then Causal.create ?capacity:causal_capacity () else Causal.disabled);
    enabled = true;
  }

let enabled t = t.enabled
let trace t = t.trace
let flight t = t.flight
let opstats t = t.opstats
let causal t = t.causal
