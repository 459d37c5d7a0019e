(* Tests of cluster plan selection (DESIGN.md §15): the greedy
   cost-guided selector's measured simulator traffic on all twelve apps
   at 2 and 5 nodes, pinned at or below the bytes the retired ILP
   selector measured, with the C-COMM-OVERRUN machinery armed and every
   value checked against the interpreter; the W-FUSION-MISSED lint; and
   a pinned-seed QCheck property compiling random partitioned programs
   for the simulated cluster. *)

open Dmll_ir
open Exp
open Builder
module R = Dmll_runtime
module M = Dmll_machine.Machine
module V = Dmll_interp.Value
module Interp = Dmll_interp.Interp
module Comm = Dmll_analysis.Comm
module Partition = Dmll_analysis.Partition
module Diag = Dmll_analysis.Diag

let check = Alcotest.check
let tbool = Alcotest.bool

(* ---------------- shared app table (mirrors test_comm) ----------------- *)

let km_data = Dmll_data.Gaussian.generate ~rows:60 ~cols:6 ~classes:3 ()
let km_centroids = Dmll_data.Gaussian.random_centroids ~k:3 km_data
let lr_data = Dmll_data.Gaussian.generate ~rows:50 ~cols:5 ~classes:2 ()
let q1_table = Dmll_data.Tpch.generate ~rows:500 ()
let gene_reads = Dmll_data.Genes.generate ~reads:500 ~barcodes:20 ()

let pr_graph =
  Dmll_graph.Csr.of_edges (Dmll_data.Rmat.generate ~scale:6 ~edge_factor:4 ())

let tri_graph =
  Dmll_graph.Csr.of_edges
    (Dmll_data.Rmat.symmetrize (Dmll_data.Rmat.generate ~scale:5 ~edge_factor:4 ()))

let knn_train = Dmll_data.Gaussian.generate ~seed:1 ~rows:40 ~cols:4 ~classes:3 ()
let knn_test = Dmll_data.Gaussian.generate ~seed:2 ~rows:12 ~cols:4 ~classes:3 ()
let nb_data = Dmll_data.Gaussian.generate ~rows:50 ~cols:4 ~classes:3 ()
let gibbs_graph = Dmll_data.Factor_graph.generate ~vars:50 ~factors:150 ()
let gibbs_state = Dmll_data.Factor_graph.initial_state gibbs_graph
let gibbs_rand = Dmll_data.Factor_graph.sweep_randoms ~sweeps:2 gibbs_graph

let apps : (string * exp * (string * V.t) list) list =
  let open Dmll_apps in
  [ ( "kmeans",
      Kmeans.program ~rows:60 ~cols:6 ~k:3 (),
      Kmeans.inputs km_data ~centroids:km_centroids );
    ( "logreg",
      Logreg.program ~rows:50 ~cols:5 ~alpha:0.01 (),
      Logreg.inputs lr_data ~theta:(Array.make 5 0.1) );
    ("gda", Gda.program ~rows:50 ~cols:5 (), Gda.inputs lr_data);
    ( "tpch_q1",
      Tpch_q1.program (),
      Tpch_q1.aos_inputs q1_table @ Tpch_q1.soa_inputs q1_table );
    ( "gene",
      Gene.program (),
      Gene.aos_inputs gene_reads @ Gene.soa_inputs gene_reads );
    ( "pagerank_pull",
      Pagerank.program_pull ~nv:pr_graph.Dmll_graph.Csr.nv (),
      Pagerank.inputs pr_graph ~ranks:(Pagerank.initial_ranks pr_graph) );
    ( "pagerank_push",
      Pagerank.program_push ~nv:pr_graph.Dmll_graph.Csr.nv (),
      Pagerank.inputs pr_graph ~ranks:(Pagerank.initial_ranks pr_graph) );
    ("tricount", Tricount.program (), Tricount.inputs tri_graph);
    ( "knn",
      Knn.program ~train_rows:40 ~test_rows:12 ~cols:4 (),
      Knn.inputs ~train:knn_train ~test:knn_test );
    ( "naive_bayes",
      Naive_bayes.program ~rows:50 ~cols:4 (),
      Naive_bayes.inputs nb_data );
    ( "gibbs",
      Gibbs.program ~nvars:50 ~replicas:2 (),
      Gibbs.inputs gibbs_graph ~state:gibbs_state ~rand:gibbs_rand );
    ( "ridge",
      Ridge.program ~rows:50 ~cols:5 ~alpha:0.001 ~lambda:0.1 (),
      Ridge.inputs lr_data ~theta:(Array.make 5 0.2) );
  ]

let config_for n =
  { R.Sim_cluster.default_config with cluster = M.with_nodes n M.ec2_cluster }

let with_validation f =
  let saved = !Comm.validate_enabled in
  Comm.validate_enabled := true;
  Fun.protect ~finally:(fun () -> Comm.validate_enabled := saved) f

let traffic_sum (r : Dmll.run_result) : float =
  List.fold_left (fun acc (_, b) -> Stdlib.( +. ) acc b) 0.0 r.Dmll.traffic

(* Compile for the simulated cluster at [n] nodes and run. *)
let run_cluster n program ~inputs =
  let cfg = Dmll.Config.(default |> with_target (Dmll.Cluster (config_for n))) in
  Dmll.execute cfg (Dmll.compile_with cfg program) ~inputs

(* ---------------- twelve apps: measured bytes pinned ------------------- *)

(* Measured simulator bytes at (2 nodes, 5 nodes): the ILP selector's
   plans on this table before it was removed.  The greedy selector must
   never move more. *)
let pinned_bytes =
  [ ("kmeans", (16528., 41104.));
    ("logreg", (120., 240.));
    ("gda", (672., 1560.));
    ("tpch_q1", (49152., 122880.));
    ("gene", (16384., 40960.));
    ("pagerank_pull", (2536., 2536.));
    ("pagerank_push", (9216., 21504.));
    ("tricount", (13080., 25392.));
    ("knn", (1984., 1984.));
    ("naive_bayes", (24576., 61440.));
    ("gibbs", (6808., 6808.));
    ("ridge", (120., 240.));
  ]

let test_apps_measured_pinned () =
  with_validation (fun () ->
      List.iter
        (fun (name, program, inputs) ->
          let expected = Interp.run ~inputs program in
          let at2, at5 = List.assoc name pinned_bytes in
          List.iter
            (fun (n, pinned) ->
              match run_cluster n program ~inputs with
              | r ->
                  check tbool
                    (Printf.sprintf "%s@%d nodes: value = interpreter" name n)
                    true
                    (V.equal r.Dmll.value expected);
                  let measured = traffic_sum r in
                  check tbool
                    (Printf.sprintf "%s@%d nodes: measured %.0fB <= pinned %.0fB"
                       name n measured pinned)
                    true
                    (Stdlib.( <= ) measured pinned)
              | exception Diag.Failed { stage; diags } ->
                  Alcotest.failf "%s@%d nodes: comm-plan overrun at %s: %s" name
                    n stage
                    (String.concat "; " (List.map Diag.to_string diags)))
            [ (2, at2); (5, at5) ])
        apps)

(* ---------------- W-FUSION-MISSED ------------------------------------- *)

(* Two adjacent distributed loops each broadcasting the same local
   collection: fusing them pays for that broadcast once instead of
   twice, so leaving them unfused must warn. *)
let unfused_pair () =
  let lc = Input ("lc", Types.Arr Types.Float, Local) in
  let pc = Input ("pc", Types.Arr Types.Float, Partitioned) in
  let a = Sym.fresh ~name:"a" (Types.Arr Types.Float) in
  let b = Sym.fresh ~name:"b" (Types.Arr Types.Float) in
  Let
    ( a,
      collect ~size:(Len pc) (fun i -> read pc i +. read lc i),
      Let
        ( b,
          collect ~size:(Len pc) (fun i -> read pc i *. read lc i),
          Tuple [ Var a; Var b ] ) )

let test_fusion_missed_lint () =
  let machine = M.with_nodes 4 M.ec2_cluster in
  let diags = Partition.fusion_missed_diags ~machine (unfused_pair ()) in
  check tbool "W-FUSION-MISSED raised on the unfused pair" true
    (Diag.has_rule diags "W-FUSION-MISSED");
  check tbool "it is a warning, not an error" false (Diag.has_errors diags);
  (* the standard pipeline fuses the pair; the warning disappears *)
  let fused =
    (Dmll_opt.Pipeline.optimize_with (unfused_pair ())).Dmll_opt.Pipeline.program
  in
  check tbool "no warning once fused" true
    (Partition.fusion_missed_diags ~machine fused = [])

(* ---------------- random programs on the cluster target --------------- *)

let prop_cluster_compile_exact =
  QCheck.Test.make ~count:100
    ~name:"cluster compile_with = interpreter"
    Dmll_testgen.Gen_ir.arbitrary_partitioned_program (fun e ->
      let inputs = [ ("xs", V.of_float_array (Array.init 96 float_of_int)) ] in
      match Interp.run ~inputs e with
      | exception Interp.Runtime_error _ -> QCheck.assume_fail ()
      | expected ->
          with_validation (fun () ->
              V.equal expected (run_cluster 3 e ~inputs).Dmll.value))

(* ---------------------------------------------------------------------- *)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "plan"
    [ ( "selection",
        [ Alcotest.test_case "twelve apps: measured <= pinned" `Slow
            test_apps_measured_pinned;
        ] );
      ( "lint",
        [ Alcotest.test_case "W-FUSION-MISSED" `Quick test_fusion_missed_lint ]
      );
      ("random", [ qt prop_cluster_compile_exact ]);
    ]
