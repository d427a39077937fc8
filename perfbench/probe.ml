(* Outside-in instrumentation of one engine session.

   [wrap] returns an {!Engine.S} whose handle forwards every call to the
   real engine and records, from outside the library:

   - for every submission: its engine qid, program, arrival ([at]) and
     the simulated instant it reached the engine (admission wait and the
     causal launch instant both follow from these);
   - with [timing] on, host CPU time split three ways. Engine calls
     ([submit], [cancel], [at], [drive], [finish]) are engine time; the
     callbacks the caller registered through [at] and [on_terminal] are
     service time, minus the engine calls nested inside them; and the
     [program] supplier handed to [Service.run] ({!timed_program}) is
     compile time, also subtracted from the service callback around it.

   [sh_now] is a field read inside the engine and stays untimed. The
   probe never changes what the engine sees, so simulated results are
   identical with and without it. *)

open Pstm_engine

type submitted = {
  s_program : Program.t;
  s_at : Sim_time.t; (* arrival instant the latency is measured from *)
  s_dispatched : Sim_time.t; (* engine clock when the call was made *)
}

type t = {
  timing : bool;
  submitted : (int, submitted) Hashtbl.t;
  mutable compiles : int;
  compile_us : float Vec.t; (* per-compile host time, timing only *)
  (* Host seconds, timing only. *)
  mutable engine_s : float; (* engine calls made outside callbacks *)
  mutable callback_s : float; (* callbacks, inclusive *)
  mutable nested_s : float; (* engine calls made from inside callbacks *)
  mutable compile_s : float; (* program supplier, inside callbacks *)
  mutable depth : int; (* callback nesting *)
}

let create ~timing =
  {
    timing;
    submitted = Hashtbl.create 1024;
    compiles = 0;
    compile_us = Vec.create ~dummy:0.0;
    engine_s = 0.0;
    callback_s = 0.0;
    nested_s = 0.0;
    compile_s = 0.0;
    depth = 0;
  }

let elapsed f =
  let t0 = Sys.time () in
  let r = f () in
  (r, Sys.time () -. t0)

(* An engine call: a call made while a callback runs is nested. [drive]
   is only ever called from outside; the callbacks it runs book their own
   time, which [engine_host_s] subtracts again. *)
let engine_call p f =
  if not p.timing then f ()
  else begin
    let r, dt = elapsed f in
    if p.depth > 0 then p.nested_s <- p.nested_s +. dt else p.engine_s <- p.engine_s +. dt;
    r
  end

let callback p f x =
  p.depth <- p.depth + 1;
  let (), dt = elapsed (fun () -> f x) in
  p.depth <- p.depth - 1;
  if p.depth = 0 then p.callback_s <- p.callback_s +. dt

let timed_program p program ~tenant ~seq =
  p.compiles <- p.compiles + 1;
  if not p.timing then program ~tenant ~seq
  else begin
    let r, dt = elapsed (fun () -> program ~tenant ~seq) in
    p.compile_s <- p.compile_s +. dt;
    Vec.push p.compile_us (dt *. 1e6);
    r
  end

(* Engine self time: engine calls from outside (drive includes the
   callbacks it ran) plus engine calls made from inside callbacks. *)
let engine_host_s p = p.engine_s -. p.callback_s +. p.nested_s

(* Service self time: callbacks minus the engine and compiler work they
   called into. *)
let service_host_s p = p.callback_s -. p.nested_s -. p.compile_s

let wrap (module E : Engine.S) p : (module Engine.S) =
  (module struct
    let name = E.name
    let run = E.run

    let start ?common ~graph () =
      let h = E.start ?common ~graph () in
      let submit s =
        let dispatched = h.Engine.sh_now () in
        let qid = engine_call p (fun () -> h.Engine.sh_submit s) in
        Hashtbl.replace p.submitted qid
          { s_program = s.Engine.program; s_at = s.Engine.at; s_dispatched = dispatched };
        qid
      in
      if not p.timing then { h with Engine.sh_submit = submit }
      else
        {
          h with
          Engine.sh_submit = submit;
          sh_cancel = (fun ~qid ~at -> engine_call p (fun () -> h.Engine.sh_cancel ~qid ~at));
          sh_at = (fun t f -> engine_call p (fun () -> h.Engine.sh_at t (callback p f)));
          sh_on_terminal =
            (fun f ->
              engine_call p (fun () ->
                  h.Engine.sh_on_terminal (fun qid o -> callback p (fun () -> f qid o) ())));
          sh_drive = (fun ~until -> engine_call p (fun () -> h.Engine.sh_drive ~until));
          sh_finish = (fun () -> engine_call p h.Engine.sh_finish);
        }
  end)

(* Instant the engine launched a submission: its arrival, or the call
   instant when the service dispatched it late. The causal DAG's submit
   node sits here. *)
let launch_at s = if Sim_time.compare s.s_dispatched s.s_at > 0 then s.s_dispatched else s.s_at

(* Admission wait: dispatch instant minus arrival. *)
let admission_wait_ms s = Sim_time.to_ms (Sim_time.diff (launch_at s) s.s_at)
