(* Chaos soak (DESIGN.md §11): the headline robustness artifact.

   Generates a stream of random well-typed DMLL programs (the property-test
   generator, wrapped so every program owns a partitioned input and hence
   at least one distributed loop), then runs each on the simulated cluster
   under a randomized chaos regime — crashes, stragglers, lossy remote
   reads, membership churn (joins + graceful leaves), tight memory budgets,
   and periodic checkpoints with the restore-vs-replay recovery policy
   armed.  Every run's value must be bit-identical to the reference
   interpreter: chaos may only move the simulated clock, never the answer.

   Everything is seeded: same seed, same programs, same chaos, same
   decisions.  Exits nonzero on the first mismatch.  Emits a JSON
   recovery-cost profile at the end:

     {"programs":N,"checked":N,"skipped":K,"seed":S,
      "phases":{"detect":...,"recompute":...,"rebalance":...,
                "restore":...,"checkpoint":...,"churn":...,"spill":...},
      "events":{"injected":...,"joins":...,"leaves":...,
                "restores":...,"replays":...,"checkpoints":...},
      "decisions":[{"at_loop":...,"chosen":"restore",...},...]}

   A second, real-process leg (--proc-programs N) runs the same program
   stream on the forked-worker executor (DESIGN.md §14) under process
   murder — real SIGKILLs, SIGSTOP straggling, severed pipes — and
   asserts the murdered run bit-identical to the healthy process run
   (and the healthy run equal to the interpreter, within float-merge
   tolerance for reassociated float reductions).

   A third, TCP leg (--net-programs N) runs the stream on the
   TCP-attached-worker executor (DESIGN.md §16) under network chaos —
   real crashes plus blackholed links, mid-frame severs, CRC-failing
   frame corruption, and delivery delays on live loopback sockets —
   and asserts the faulted run bit-identical to the healthy TCP run.

   --deadline-s S arms a hard wall-clock watchdog (SIGALRM): if the
   whole soak exceeds S seconds it exits 124, so a wedged run can never
   hang a CI gate.

   Usage: soak.exe [--programs N] [--proc-programs N] [--net-programs N]
                   [--seed S] [--deadline-s S] [--verbose]
   The `dune build @soak` alias runs the short pinned simulated
   configuration; `@proc-soak` the pinned real-process leg; `@net-soak`
   the pinned TCP leg. *)

open Dmll_ir
module R = Dmll_runtime
module M = Dmll_machine.Machine
module V = Dmll_interp.Value
module Interp = Dmll_interp.Interp

let default_programs = 120
let default_seed = 20260807

(* ------------------------------------------------------------------ *)
(* Program generation                                                  *)
(* ------------------------------------------------------------------ *)

(* Every program owns a partitioned input ("xs"), so the wrapper loop is
   distributed and the cluster's fault/churn/pressure machinery is always
   exercised.  Shared with the recovery-equivalence property tests. *)
let gen_soak_program : Exp.exp QCheck.Gen.t =
  Dmll_testgen.Gen_ir.partitioned_program

(* ------------------------------------------------------------------ *)
(* Chaos regimes                                                       *)
(* ------------------------------------------------------------------ *)

(* All chaos parameters are drawn from a private SplitMix64 stream keyed
   by the soak seed and the program number — reproducible and independent
   of generation order. *)
let chaos_config ~(seed : int) ~(program_no : int) =
  let rng = Dmll_util.Prng.create (seed lxor (program_no * 0x9E3779B9)) in
  let f bound = Dmll_util.Prng.float rng bound in
  let pick xs = List.nth xs (int_of_float (f (float_of_int (List.length xs)))) in
  let nodes = pick [ 2; 3; 5; 8 ] in
  let spec =
    { M.default_faults with
      M.fault_seed = seed + program_no;
      crash_prob = f 0.3;
      crash_transient_frac = 0.3 +. f 0.5;
      straggler_prob = f 0.2;
      read_drop_prob = f 0.05;
      read_delay_prob = f 0.05;
      join_prob = f 0.3;
      leave_prob = f 0.15;
      spare_nodes = pick [ 2; 3; 4 ];
      max_retries = 2;
      backoff_us = 1.0;
    }
  in
  let mem_budget_gb =
    (* every third program runs with a ~2KB budget, tight enough that its
       partition share spills and remote reads see backpressure *)
    if program_no mod 3 = 0 then Some 2e-6 else None
  in
  let injector = R.Fault.create spec in
  let store = R.Checkpoint.create ~cadence:(pick [ 1; 2; 3 ]) in
  let config =
    { R.Sim_cluster.default_config with
      cluster = M.with_nodes nodes M.ec2_cluster;
      faults = Some injector;
      mem_budget_gb;
    }
  in
  (config, injector, store)

(* ------------------------------------------------------------------ *)
(* The soak loop                                                       *)
(* ------------------------------------------------------------------ *)

let phase_names =
  R.Sim_common.recovery_phases @ R.Sim_common.elastic_phases
  @ [ "compute"; "broadcast"; "replicate"; "gather" ]

let run ?(programs = default_programs) ?(seed = default_seed)
    ?(verbose = false) () : int =
  let rand = Random.State.make [| seed |] in
  let progs = QCheck.Gen.generate ~n:programs ~rand gen_soak_program in
  let phase_totals = Hashtbl.create 16 in
  let add_phase p s =
    Hashtbl.replace phase_totals p
      (s +. Option.value ~default:0.0 (Hashtbl.find_opt phase_totals p))
  in
  let checked = ref 0 and skipped = ref 0 and mismatches = ref 0 in
  let injected = ref 0 and joins = ref 0 and leaves = ref 0 in
  let restores = ref 0 and replays = ref 0 and checkpoints = ref 0 in
  let all_decisions = ref [] in
  List.iteri
    (fun pno program ->
      let n = 256 + ((pno * 37) mod 512) in
      let inputs =
        [ ("xs", V.of_float_array (Array.init n (fun i -> float_of_int (i mod 23))))
        ]
      in
      match Interp.run ~inputs program with
      | exception Interp.Runtime_error _ -> incr skipped
      | expected ->
          let config, injector, store = chaos_config ~seed ~program_no:pno in
          let result =
            R.Sim_cluster.run ~config ~checkpoint:store ~inputs program
          in
          incr checked;
          if not (V.equal expected result.R.Sim_common.value) then begin
            incr mismatches;
            Printf.eprintf
              "MISMATCH program %d (seed %d):\n%s\nexpected %s\ngot      %s\n"
              pno seed
              (Dmll_ir.Pp.to_string program)
              (V.to_string expected)
              (V.to_string result.R.Sim_common.value)
          end;
          List.iter (fun p -> add_phase p (R.Sim_common.phase_total result p)) phase_names;
          injected := !injected + R.Fault.total_injected injector;
          joins := !joins + R.Fault.join_count injector;
          leaves := !leaves + R.Fault.leave_count injector;
          restores := !restores + R.Fault.restore_count injector;
          replays := !replays + R.Fault.replay_count injector;
          checkpoints := !checkpoints + R.Fault.checkpoint_count injector;
          all_decisions := !all_decisions @ R.Checkpoint.decisions store;
          if verbose then
            Printf.printf "program %3d: nodes=%d %s\n%!" pno
              config.R.Sim_cluster.cluster.M.nodes
              (R.Fault.stats_to_string injector))
    progs;
  let phases_json =
    String.concat ", "
      (List.map
         (fun p ->
           Printf.sprintf "\"%s\": %.6g" p
             (Option.value ~default:0.0 (Hashtbl.find_opt phase_totals p)))
         phase_names)
  in
  let decisions_json =
    String.concat ", "
      (List.map
         (fun (d : R.Checkpoint.decision) ->
           Printf.sprintf
             "{\"at_loop\": %d, \"chosen\": \"%s\", \"restore_cost_s\": \
              %.6g, \"replay_cost_s\": %.6g}"
             d.R.Checkpoint.decided_at_loop
             (R.Checkpoint.choice_to_string d.R.Checkpoint.chosen)
             d.R.Checkpoint.restore_cost d.R.Checkpoint.replay_cost)
         !all_decisions)
  in
  Printf.printf
    "{\"programs\": %d, \"checked\": %d, \"skipped\": %d, \"mismatches\": %d, \
     \"seed\": %d, \"phases\": {%s}, \"events\": {\"injected\": %d, \
     \"joins\": %d, \"leaves\": %d, \"restores\": %d, \"replays\": %d, \
     \"checkpoints\": %d}, \"decisions\": [%s]}\n"
    programs !checked !skipped !mismatches seed phases_json !injected !joins
    !leaves !restores !replays !checkpoints decisions_json;
  if !mismatches > 0 then 1
  else if !checked < 100 && programs >= 100 then begin
    Printf.eprintf
      "soak: only %d of %d programs were checkable (need >= 100)\n" !checked
      programs;
    1
  end
  else 0

(* ------------------------------------------------------------------ *)
(* Real-process leg (DESIGN.md §14)                                    *)
(* ------------------------------------------------------------------ *)

(* Per-program murder regime, drawn from a stream independent of the
   simulated leg's: every worker count and fault probability reproduces
   from (seed, program number) alone. *)
let proc_chaos ~(seed : int) ~(program_no : int) =
  let rng = Dmll_util.Prng.create ((seed + 77) lxor (program_no * 0x2545F491)) in
  let f bound = Dmll_util.Prng.float rng bound in
  let pick xs = List.nth xs (int_of_float (f (float_of_int (List.length xs)))) in
  let workers = pick [ 2; 3; 4 ] in
  let spec =
    { M.default_faults with
      M.fault_seed = seed + 1000 + program_no;
      crash_prob = 0.1 +. f 0.2;
      crash_transient_frac = 0.5 +. f 0.5;
      straggler_prob = f 0.15;
      straggler_slowdown = 20.0;
      max_retries = 2;
      backoff_us = 1.0;
    }
  in
  (workers, spec)

let proc_config ~workers ?faults () =
  { R.Proc_cluster.default_config with
    R.Proc_cluster.workers;
    faults;
    task_deadline_s = 2.0;
    heartbeat_s = 0.05;
  }

(* Run [programs] random programs on real forked workers, healthy and
   murdered, asserting the murdered value bit-identical to the healthy
   one and the healthy one equal to the interpreter (1e-6 for
   reassociated float merges).  Prints a JSON summary line; returns the
   exit code. *)
let run_proc ~(programs : int) ~(seed : int) ~(verbose : bool) () : int =
  let rand = Random.State.make [| seed lxor 0x5DEECE66 |] in
  let progs = QCheck.Gen.generate ~n:programs ~rand gen_soak_program in
  let checked = ref 0 and skipped = ref 0 and mismatches = ref 0 in
  let killed = ref 0 and link_cuts = ref 0 and stopped = ref 0 in
  let deadline_kills = ref 0 and heartbeat_kills = ref 0 in
  let respawned = ref 0 and recovered = ref 0 and master = ref 0 in
  List.iteri
    (fun pno program ->
      let n = 256 + ((pno * 53) mod 512) in
      let inputs =
        [ ("xs", V.of_float_array (Array.init n (fun i -> float_of_int (i mod 23))))
        ]
      in
      match Interp.run ~inputs program with
      | exception Interp.Runtime_error _ -> incr skipped
      | expected -> (
          let workers, spec = proc_chaos ~seed ~program_no:pno in
          let healthy =
            R.Proc_cluster.run ~config:(proc_config ~workers ()) ~inputs program
          in
          incr checked;
          if
            not
              (V.equal healthy.R.Proc_cluster.value expected
              || V.approx_equal ~eps:1e-6 expected healthy.R.Proc_cluster.value)
          then begin
            incr mismatches;
            Printf.eprintf
              "PROC MISMATCH (healthy vs interp) program %d (seed %d):\n\
               %s\nexpected %s\ngot      %s\n"
              pno seed
              (Dmll_ir.Pp.to_string program)
              (V.to_string expected)
              (V.to_string healthy.R.Proc_cluster.value)
          end;
          let injector = R.Fault.create spec in
          match
            R.Proc_cluster.run
              ~config:(proc_config ~workers ~faults:injector ())
              ~inputs program
          with
          | exception e ->
              incr mismatches;
              Printf.eprintf "PROC CRASH program %d (seed %d): %s\n" pno seed
                (Printexc.to_string e)
          | murdered ->
              (* the headline assertion: murdering workers never moves
                 the value — bit-identical, not approximately equal *)
              if
                not
                  (V.equal murdered.R.Proc_cluster.value
                     healthy.R.Proc_cluster.value)
              then begin
                incr mismatches;
                Printf.eprintf
                  "PROC MISMATCH (murdered vs healthy) program %d (seed %d):\n\
                   %s\nhealthy  %s\nmurdered %s\n"
                  pno seed
                  (Dmll_ir.Pp.to_string program)
                  (V.to_string healthy.R.Proc_cluster.value)
                  (V.to_string murdered.R.Proc_cluster.value)
              end;
              let s = murdered.R.Proc_cluster.stats in
              killed := !killed + s.R.Proc_cluster.killed;
              link_cuts := !link_cuts + s.R.Proc_cluster.link_cuts;
              stopped := !stopped + s.R.Proc_cluster.stopped;
              deadline_kills := !deadline_kills + s.R.Proc_cluster.deadline_kills;
              heartbeat_kills :=
                !heartbeat_kills + s.R.Proc_cluster.heartbeat_kills;
              respawned := !respawned + s.R.Proc_cluster.respawned;
              recovered := !recovered + s.R.Proc_cluster.recovered_chunks;
              master := !master + s.R.Proc_cluster.master_chunks;
              if verbose then
                Printf.printf "proc program %3d: workers=%d %s\n%!" pno workers
                  (R.Proc_cluster.stats_to_string s)))
    progs;
  Printf.printf
    "{\"proc_programs\": %d, \"checked\": %d, \"skipped\": %d, \
     \"mismatches\": %d, \"seed\": %d, \"events\": {\"killed\": %d, \
     \"link_cuts\": %d, \"stopped\": %d, \"deadline_kills\": %d, \
     \"heartbeat_kills\": %d, \"respawned\": %d, \"recovered_chunks\": %d, \
     \"master_chunks\": %d}}\n"
    programs !checked !skipped !mismatches seed !killed !link_cuts !stopped
    !deadline_kills !heartbeat_kills !respawned !recovered !master;
  if !mismatches > 0 then 1
  else if programs > 0 && !killed + !stopped + !link_cuts = 0 then begin
    Printf.eprintf "proc soak: chaos regime injected no process murder\n";
    1
  end
  else 0

(* ------------------------------------------------------------------ *)
(* TCP leg (DESIGN.md §16)                                             *)
(* ------------------------------------------------------------------ *)

(* Per-program network-chaos regime: crashes and stragglers as in the
   proc leg, plus the link fault classes — blackholed partitions,
   mid-frame severs, CRC-failing corruption, delivery delays — drawn
   from a stream independent of both other legs.  [heartbeat_ms] keys
   the injected partition duration; keep it short so a blackholed link
   costs milliseconds of soak wall-clock, not seconds. *)
let net_chaos ~(seed : int) ~(program_no : int) =
  let rng = Dmll_util.Prng.create ((seed + 131) lxor (program_no * 0x1B873593)) in
  let f bound = Dmll_util.Prng.float rng bound in
  let pick xs = List.nth xs (int_of_float (f (float_of_int (List.length xs)))) in
  let workers = pick [ 2; 3 ] in
  let spec =
    { M.default_faults with
      M.fault_seed = seed + 2000 + program_no;
      crash_prob = f 0.15;
      crash_transient_frac = 0.5 +. f 0.5;
      straggler_prob = f 0.1;
      straggler_slowdown = 20.0;
      partition_prob = f 0.08;
      sever_prob = f 0.08;
      corrupt_prob = f 0.08;
      link_delay_prob = f 0.1;
      link_delay_ms = 0.3;
      heartbeat_ms = 20.0;
      max_retries = 2;
      backoff_us = 1.0;
    }
  in
  (workers, spec)

let net_config ~workers ?faults () =
  { R.Net_cluster.default_config with
    R.Net_cluster.workers;
    faults;
    task_deadline_s = 0.6;
    heartbeat_s = 0.04;
    reconnect_grace_s = 0.1;
    max_respawns = 64;
  }

(* Run [programs] random programs on the TCP executor, healthy and under
   network chaos, asserting the chaos value bit-identical to the healthy
   one and the healthy one equal to the interpreter (1e-6 for
   reassociated float merges).  Hard-fails if the whole sweep delivered
   no link faults — a silent injector would turn this gate into a no-op.
   Prints a JSON summary line; returns the exit code. *)
let run_net ~(programs : int) ~(seed : int) ~(verbose : bool) () : int =
  let rand = Random.State.make [| seed lxor 0x2E1B2138 |] in
  let progs = QCheck.Gen.generate ~n:programs ~rand gen_soak_program in
  let checked = ref 0 and skipped = ref 0 and mismatches = ref 0 in
  let link_faults = ref 0 and disconnects = ref 0 and reconnects = ref 0 in
  let grace_expired = ref 0 and deadline_kills = ref 0 in
  let heartbeat_kills = ref 0 and frame_resends = ref 0 in
  let replans = ref 0 and respawned = ref 0 in
  let recovered = ref 0 and master = ref 0 in
  List.iteri
    (fun pno program ->
      let n = 256 + ((pno * 41) mod 512) in
      let inputs =
        [ ("xs", V.of_float_array (Array.init n (fun i -> float_of_int (i mod 23))))
        ]
      in
      match Interp.run ~inputs program with
      | exception Interp.Runtime_error _ -> incr skipped
      | expected -> (
          let workers, spec = net_chaos ~seed ~program_no:pno in
          let healthy =
            R.Net_cluster.run ~config:(net_config ~workers ()) ~inputs program
          in
          incr checked;
          if
            not
              (V.equal healthy.R.Net_cluster.value expected
              || V.approx_equal ~eps:1e-6 expected healthy.R.Net_cluster.value)
          then begin
            incr mismatches;
            Printf.eprintf
              "NET MISMATCH (healthy vs interp) program %d (seed %d):\n\
               %s\nexpected %s\ngot      %s\n"
              pno seed
              (Dmll_ir.Pp.to_string program)
              (V.to_string expected)
              (V.to_string healthy.R.Net_cluster.value)
          end;
          let injector = R.Fault.create spec in
          match
            R.Net_cluster.run
              ~config:(net_config ~workers ~faults:injector ())
              ~inputs program
          with
          | exception e ->
              incr mismatches;
              Printf.eprintf "NET CRASH program %d (seed %d): %s\n" pno seed
                (Printexc.to_string e)
          | faulted ->
              (* the headline assertion: network faults never move the
                 value — bit-identical, not approximately equal *)
              if
                not
                  (V.equal faulted.R.Net_cluster.value
                     healthy.R.Net_cluster.value)
              then begin
                incr mismatches;
                Printf.eprintf
                  "NET MISMATCH (faulted vs healthy) program %d (seed %d):\n\
                   %s\nhealthy %s\nfaulted %s\n"
                  pno seed
                  (Dmll_ir.Pp.to_string program)
                  (V.to_string healthy.R.Net_cluster.value)
                  (V.to_string faulted.R.Net_cluster.value)
              end;
              link_faults := !link_faults + R.Fault.link_fault_count injector;
              let s = faulted.R.Net_cluster.stats in
              disconnects := !disconnects + s.R.Net_cluster.disconnects;
              reconnects := !reconnects + s.R.Net_cluster.reconnects;
              grace_expired := !grace_expired + s.R.Net_cluster.grace_expired;
              deadline_kills := !deadline_kills + s.R.Net_cluster.deadline_kills;
              heartbeat_kills :=
                !heartbeat_kills + s.R.Net_cluster.heartbeat_kills;
              frame_resends := !frame_resends + s.R.Net_cluster.frame_resends;
              replans := !replans + s.R.Net_cluster.replans;
              respawned := !respawned + s.R.Net_cluster.respawned;
              recovered := !recovered + s.R.Net_cluster.recovered_chunks;
              master := !master + s.R.Net_cluster.master_chunks;
              if verbose then
                Printf.printf "net program %3d: workers=%d %s\n%!" pno workers
                  (R.Net_cluster.stats_to_string s)))
    progs;
  Printf.printf
    "{\"net_programs\": %d, \"checked\": %d, \"skipped\": %d, \
     \"mismatches\": %d, \"seed\": %d, \"events\": {\"link_faults\": %d, \
     \"disconnects\": %d, \"reconnects\": %d, \"grace_expired\": %d, \
     \"deadline_kills\": %d, \"heartbeat_kills\": %d, \"frame_resends\": %d, \
     \"replans\": %d, \"respawned\": %d, \"recovered_chunks\": %d, \
     \"master_chunks\": %d}}\n"
    programs !checked !skipped !mismatches seed !link_faults !disconnects
    !reconnects !grace_expired !deadline_kills !heartbeat_kills !frame_resends
    !replans !respawned !recovered !master;
  if !mismatches > 0 then 1
  else if programs > 0 && !link_faults = 0 then begin
    Printf.eprintf "net soak: chaos regime delivered no link faults\n";
    1
  end
  else 0

(* Hard wall-clock watchdog: a wedged soak exits 124 instead of hanging
   the CI gate.  SIGALRM is delivered to the parent only; workers forked
   later inherit the handler but never the pending alarm. *)
let arm_watchdog (deadline_s : int) : unit =
  if deadline_s > 0 then begin
    Sys.set_signal Sys.sigalrm
      (Sys.Signal_handle
         (fun _ ->
           Printf.eprintf "soak: wall-clock deadline (%ds) exceeded\n%!"
             deadline_s;
           exit 124));
    ignore (Unix.alarm deadline_s)
  end

let () =
  let programs = ref default_programs in
  let proc_programs = ref 0 in
  let net_programs = ref 0 in
  let seed = ref default_seed in
  let deadline_s = ref 0 in
  let verbose = ref false in
  let rec parse = function
    | [] -> ()
    | "--programs" :: v :: rest ->
        programs := int_of_string v;
        parse rest
    | "--proc-programs" :: v :: rest ->
        proc_programs := int_of_string v;
        parse rest
    | "--net-programs" :: v :: rest ->
        net_programs := int_of_string v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | "--deadline-s" :: v :: rest ->
        deadline_s := int_of_string v;
        parse rest
    | "--verbose" :: rest ->
        verbose := true;
        parse rest
    | a :: _ ->
        Printf.eprintf
          "soak: unknown argument %S\nusage: soak.exe [--programs N] \
           [--proc-programs N] [--net-programs N] [--seed S] \
           [--deadline-s S] [--verbose]\n"
          a;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  arm_watchdog !deadline_s;
  let sim_code =
    if !programs > 0 then run ~programs:!programs ~seed:!seed ~verbose:!verbose ()
    else 0
  in
  let proc_code =
    if !proc_programs > 0 then
      run_proc ~programs:!proc_programs ~seed:!seed ~verbose:!verbose ()
    else 0
  in
  let net_code =
    if !net_programs > 0 then
      run_net ~programs:!net_programs ~seed:!seed ~verbose:!verbose ()
    else 0
  in
  exit (max sim_code (max proc_code net_code))
