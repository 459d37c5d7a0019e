(** The optimization pass manager.

    Runs the shared-memory optimization pipeline of §3 and §5 in the order
    the paper describes, to an overall fixpoint:

    {v simplify → CSE → fusion (pipeline + horizontal) → data-structure
       (unwrap / AoS→SoA / DFE) → code motion → simplify v}

    The nested-pattern rules of Figure 3 are {e not} part of this pipeline;
    they are locality transformations driven by the stencil/partitioning
    analyses and by per-device policies (see [Dmll_analysis.Stencil] and
    the core driver).  {!optimize_with} lets the driver splice them in. *)

open Dmll_ir
module Span = Dmll_obs.Span

type report = {
  program : Exp.exp;
  applied : string list;  (** rule firings, in order *)
  iterations : int;
}

(** Distinct optimization names that fired, de-duplicated, in first-fired
    order — the "Optimizations" column of Table 2. *)
let distinct_applied (r : report) : string list =
  List.fold_left
    (fun acc n -> if List.mem n acc then acc else acc @ [ n ])
    [] r.applied

let standard_rules : Rewrite.rule list =
  Simplify.rules @ Cse.rules @ Fusion.rules @ Soa.rules @ Motion.rules

(* ------------------------------------------------------------------ *)
(* Debug-mode verification hook                                         *)
(* ------------------------------------------------------------------ *)

(** Verification hook installed by the driver in debug mode
    ([Dmll.compile ~debug:true] wires it to typecheck + the
    parallel-safety verifier, failing fast on Error-severity findings).
    When set, it is called with a stage label and the current program
    after every individual rule application and after each pipeline
    stage.  [None] (the default) costs nothing.

    The hook lives here rather than in the analysis library because the
    optimizer cannot depend on [Dmll_analysis] (the analyses are its
    clients); the driver, which sees both, closes the loop. *)
let post_stage_check : (string -> Exp.exp -> unit) option ref = ref None

let run_check stage e =
  match !post_stage_check with Some f -> f stage e | None -> ()

(* With a hook installed, every rule verifies its own (possibly open)
   rewritten sub-expression, so a transformation bug is caught at the
   exact rule that introduced it. *)
let instrument_rules (rules : Rewrite.rule list) : Rewrite.rule list =
  match !post_stage_check with
  | None -> rules
  | Some f ->
      List.map
        (fun (r : Rewrite.rule) ->
          { r with
            Rewrite.apply =
              (fun e ->
                match r.Rewrite.apply e with
                | Some e' ->
                    f ("rule:" ^ r.Rewrite.rname) e';
                    Some e'
                | None -> None);
          })
        rules

(* With a tracer armed, every rule firing becomes a span (cat ["rule"])
   carrying the node count of the rewritten sub-expression before and
   after — the per-decision attribution [dmllc --trace] renders.  A rule
   attempt that declines ([None]) records nothing. *)
let trace_rules (tracer : Span.t option) (rules : Rewrite.rule list) :
    Rewrite.rule list =
  match tracer with
  | None -> rules
  | Some tr ->
      List.map
        (fun (r : Rewrite.rule) ->
          { r with
            Rewrite.apply =
              (fun e ->
                let started_us = Span.now_us tr in
                match r.Rewrite.apply e with
                | Some e' ->
                    Span.emit_now tr ~cat:"rule" ~name:r.Rewrite.rname
                      ~args:
                        [ ("ir_before", Span.Int (Exp.node_count e));
                          ("ir_after", Span.Int (Exp.node_count e'));
                        ]
                      ~started_us ();
                    Some e'
                | None -> None);
          })
        rules

(** Optimize with the standard shared-memory pipeline plus [extra_rules]
    (e.g. a subset of [Rules_nested.all] chosen by the driver).

    [?fusion_objective] threads a communication objective into
    horizontal fusion (the driver passes the partitioning analysis's
    predicted-volume closure for cluster targets; candidates that would
    move strictly more bytes are declined, [?on_fusion_reject] observes
    each decline).  [~horizontal_fusion:false] removes horizontal fusion
    from the pipeline entirely, so a caller can merge one chosen pair
    itself ([Dmll_analysis.Partition.fusion_missed_diags]).

    [?tracer] records one span per pipeline stage (cat ["pipeline"]) and
    one per rule firing (cat ["rule"]), with before/after IR sizes. *)
let optimize_with ?tracer ?(extra_rules = []) ?fusion_objective
    ?on_fusion_reject ?(horizontal_fusion = true) (e : Exp.exp) : report =
  let trace = Rewrite.new_trace () in
  let base_rules =
    match (fusion_objective, horizontal_fusion) with
    | None, true -> standard_rules
    | objective, horizontal ->
        Simplify.rules @ Cse.rules
        @ Fusion.rules_with ?objective ?on_reject:on_fusion_reject ~horizontal
            ()
        @ Soa.rules @ Motion.rules
  in
  let rules = trace_rules tracer (instrument_rules (base_rules @ extra_rules)) in
  let stage name input f =
    match tracer with
    | None -> f ()
    | Some tr ->
        let started_us = Span.now_us tr in
        let e' = f () in
        Span.emit_now tr ~cat:"pipeline" ~name
          ~args:
            [ ("ir_before", Span.Int (Exp.node_count input));
              ("ir_after", Span.Int (Exp.node_count e'));
            ]
          ~started_us ();
        e'
  in
  let rec go i e =
    if i >= 12 then (e, i)
    else
      let before = List.length trace.Rewrite.applied in
      let e =
        stage (Printf.sprintf "rewrite-fixpoint:%d" i) e (fun () ->
            Rewrite.fixpoint rules trace e)
      in
      run_check (Printf.sprintf "rewrite-fixpoint:%d" i) e;
      let e =
        stage (Printf.sprintf "soa-inputs:%d" i) e (fun () ->
            fst (Soa.soa_inputs ~trace e))
      in
      run_check (Printf.sprintf "soa-inputs:%d" i) e;
      if List.length trace.Rewrite.applied = before then (e, i + 1) else go (i + 1) e
  in
  let program, iterations = go 0 e in
  { program; applied = Rewrite.applied trace; iterations }

let optimize e = optimize_with e

(** Optimize and verify the result still type checks (used by tests and by
    [dmllc --check]); raises [Typecheck.Type_error] on a compiler bug. *)
let optimize_checked e =
  let r = optimize e in
  ignore (Typecheck.ty_of r.program);
  r
