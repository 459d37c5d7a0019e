(* Tests of the native backend (generated OCaml compiled by ocamlopt and
   dynlinked): every application's generated kernel must compute exactly
   what the reference interpreter computes, one [Dmll.execute] calls its
   kernel once, and the JIT works from an executable outside the build
   tree.  Skipped when the JIT is unavailable. *)

open Dmll_interp
module Backend = Dmll_backend
module Cache = Backend.Kernel_cache

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let available = Lazy.force Backend.Native.Jit.available

(* A private kernel-cache root, removed when the suite exits. *)
let fresh_cache () =
  let root = Filename.temp_dir "dmll-native-cache" "" in
  at_exit (fun () -> Cache.rm_rf root);
  (root, Cache.create ~root ())

let native_matches ?(eps = 1e-9) name program inputs =
  if not available then ()
  else begin
    let opt = (Dmll.compile_with Dmll.Config.default program).Dmll.final in
    let expected = Interp.run ~inputs program in
    let r = Backend.Native.run ~inputs opt in
    check tbool
      (name ^ ": native = interpreter")
      true
      (Value.approx_equal ~eps expected r.Backend.Native.value);
    check tbool (name ^ ": positive time") true (r.Backend.Native.seconds >= 0.0)
  end

let test_toolchain () =
  if not available then
    Printf.printf "native JIT unavailable; native tests skipped\n"

let rows = 200
let cols = 6
let k = 3

let ml = Dmll_data.Gaussian.generate ~rows ~cols ~classes:k ()
let cents = Dmll_data.Gaussian.random_centroids ~k ml

let test_kmeans () =
  native_matches "kmeans"
    (Dmll_apps.Kmeans.program ~rows ~cols ~k ())
    (Dmll_apps.Kmeans.inputs ml ~centroids:cents)

let test_logreg () =
  native_matches "logreg"
    (Dmll_apps.Logreg.program ~rows ~cols ~alpha:0.01 ())
    (Dmll_apps.Logreg.inputs ml ~theta:(Array.make cols 0.1))

let test_gda () =
  native_matches "gda" (Dmll_apps.Gda.program ~rows ~cols ()) (Dmll_apps.Gda.inputs ml)

let test_q1 () =
  let t = Dmll_data.Tpch.generate ~rows:500 () in
  (* the optimized program consumes columns; the interpreter reference runs
     the source program on structs — compare through the optimized one *)
  let program = Dmll_apps.Tpch_q1.program () in
  if available then begin
    let opt = (Dmll.compile_with Dmll.Config.default program).Dmll.final in
    let q1_matches what inputs =
      let expected = Backend.Closure.run ~inputs opt in
      let r = Backend.Native.run ~inputs opt in
      check tbool ("q1 native = closure, " ^ what) true
        (Value.approx_equal ~eps:1e-9 expected r.Backend.Native.value)
    in
    q1_matches "columns" (Dmll_apps.Tpch_q1.soa_inputs t);
    (* the kernel is shipped only the inputs it reads: the unused AoS
       table beside the columns must change nothing *)
    q1_matches "rows and columns"
      (Dmll_apps.Tpch_q1.aos_inputs t @ Dmll_apps.Tpch_q1.soa_inputs t)
  end

let test_gene () =
  let g = Dmll_data.Genes.generate ~reads:500 ~barcodes:20 () in
  let program = Dmll_apps.Gene.program () in
  if available then begin
    let opt = (Dmll.compile_with Dmll.Config.default program).Dmll.final in
    let inputs = Dmll_apps.Gene.soa_inputs g in
    let expected = Backend.Closure.run ~inputs opt in
    let r = Backend.Native.run ~inputs opt in
    check tbool "gene native = closure" true
      (Value.approx_equal ~eps:1e-9 expected r.Backend.Native.value)
  end

let test_pagerank () =
  let g = Dmll_graph.Csr.of_edges (Dmll_data.Rmat.generate ~scale:6 ~edge_factor:4 ()) in
  native_matches "pagerank"
    (Dmll_apps.Pagerank.program_pull ~nv:g.Dmll_graph.Csr.nv ())
    (Dmll_apps.Pagerank.inputs g ~ranks:(Dmll_apps.Pagerank.initial_ranks g))

let test_tricount () =
  let g =
    Dmll_graph.Csr.of_edges
      (Dmll_data.Rmat.symmetrize (Dmll_data.Rmat.generate ~scale:5 ~edge_factor:3 ()))
  in
  native_matches "tricount" (Dmll_apps.Tricount.program ()) (Dmll_apps.Tricount.inputs g)

let test_gibbs () =
  let g = Dmll_data.Factor_graph.generate ~vars:40 ~factors:100 () in
  native_matches "gibbs"
    (Dmll_apps.Gibbs.program ~nvars:40 ~replicas:2 ())
    (Dmll_apps.Gibbs.inputs g
       ~state:(Dmll_data.Factor_graph.initial_state g)
       ~rand:(Dmll_data.Factor_graph.sweep_randoms ~sweeps:2 g))

(* One [Dmll.execute] on [Native] calls its kernel exactly once: a
   counting kernel registered under the program's cache key answers the
   resolve, so the count is the number of calls the executor makes. *)
let test_one_call_per_execute () =
  if available then begin
    let root, _ = fresh_cache () in
    let cfg =
      Dmll.Config.(default |> with_target Dmll.Native |> with_kernel_cache_dir root)
    in
    let data = Dmll_data.Gaussian.generate ~rows:11 ~cols:2 ~classes:2 () in
    let c = Dmll.compile_with cfg (Dmll_apps.Kmeans.program ~rows:11 ~cols:2 ~k:2 ()) in
    let calls = ref 0 in
    Backend.Kernel_link.register ~key:(Backend.Native.cache_key c.Dmll.final)
      (fun _ ->
        incr calls;
        Marshal.to_string (Value.Vint 42) []);
    let r =
      Dmll.execute cfg c
        ~inputs:
          (Dmll_apps.Kmeans.inputs data
             ~centroids:(Dmll_data.Gaussian.random_centroids ~k:2 data))
    in
    check tint "kernel called once per execute" 1 !calls;
    check tbool "execute returns the kernel's value" true
      (Value.equal (Value.Vint 42) r.Dmll.value)
  end

(* The JIT from an executable outside the build tree: a copy of this test
   executable, re-executed with [outside_build_probe] as its argument,
   runs a small kmeans natively and exits 0 when the JIT is available and
   its value equals the interpreter's. *)
let outside_build_probe = "--outside-build-probe"

let probe () =
  let jit = Lazy.force Backend.Native.Jit.available in
  let ok =
    jit
    &&
    let _, cache = fresh_cache () in
    let program = Dmll_apps.Kmeans.program ~rows ~cols ~k () in
    let inputs = Dmll_apps.Kmeans.inputs ml ~centroids:cents in
    let opt = (Dmll.compile_with Dmll.Config.default program).Dmll.final in
    let r = Backend.Native.run ~cache ~inputs opt in
    Value.approx_equal ~eps:1e-9 (Interp.run ~inputs program) r.Backend.Native.value
  in
  Printf.printf "native from %s: JIT available %b, value %s\n"
    Sys.executable_name jit
    (if ok then "equals the interpreter's" else "FAILED");
  exit (if ok then 0 else 1)

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = outside_build_probe then probe ()

let test_outside_build () =
  if available then begin
    let dir = Filename.temp_dir "dmll-outside-build" "" in
    Fun.protect
      ~finally:(fun () -> Cache.rm_rf dir)
      (fun () ->
        let copy = Filename.concat dir "native_probe.exe" in
        Out_channel.with_open_gen [ Open_wronly; Open_creat; Open_binary ] 0o755 copy
          (fun oc ->
            Out_channel.output_string oc
              (In_channel.with_open_bin Sys.executable_name In_channel.input_all));
        let log = Filename.concat dir "probe.log" in
        let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT ] 0o600 in
        let pid =
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              Unix.create_process copy [| copy; outside_build_probe |] Unix.stdin fd fd)
        in
        let _, status = Unix.waitpid [] pid in
        check tbool
          ("copied executable runs natively: "
          ^ In_channel.with_open_bin log In_channel.input_all)
          true
          (status = Unix.WEXITED 0))
  end

let () =
  Alcotest.run "native"
    [ ( "apps",
        [ Alcotest.test_case "toolchain" `Quick test_toolchain;
          Alcotest.test_case "kmeans" `Slow test_kmeans;
          Alcotest.test_case "logreg" `Slow test_logreg;
          Alcotest.test_case "gda" `Slow test_gda;
          Alcotest.test_case "tpch-q1" `Slow test_q1;
          Alcotest.test_case "gene" `Slow test_gene;
          Alcotest.test_case "pagerank" `Slow test_pagerank;
          Alcotest.test_case "tricount" `Slow test_tricount;
          Alcotest.test_case "gibbs" `Slow test_gibbs;
        ] );
      ( "executor",
        [ Alcotest.test_case "one kernel call per execute" `Quick
            test_one_call_per_execute;
          Alcotest.test_case "JIT outside the build tree" `Slow test_outside_build;
        ] );
    ]
