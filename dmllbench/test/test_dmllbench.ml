(* Self-tests of the benchmark's own machinery: the same seed yields the
   same job sequence, cold-start variants really miss the kernel cache,
   and the correctness check is live.  The tail statistic is tested in
   test_run.py, beside the code that pools samples. *)

open Dmllbench
module V = Dmll_interp.Value

let picks ~seed n =
  let o = Seqgen.order ~seed ~apps:5 ~pool:3 in
  List.init n (fun _ -> Array.to_list (Seqgen.next o))

let variants ~seed n =
  let s = Variants.stream ~seed in
  List.init n (fun _ -> Variants.next s)

let descriptors ~seed n = List.map Variants.describe (variants ~seed n)

let test_pool_order () =
  Alcotest.(check (list (list int))) "same seed, same draws" (picks ~seed:7 40) (picks ~seed:7 40);
  Alcotest.(check bool) "another seed, other draws" false (picks ~seed:7 40 = picks ~seed:8 40);
  let rec no_repeat = function
    | a :: (b :: _ as rest) -> List.for_all2 ( <> ) a b && no_repeat rest
    | _ -> true
  in
  Alcotest.(check bool) "no app reuses its previous entry" true (no_repeat (picks ~seed:7 200))

let test_variant_sequence () =
  Alcotest.(check (list string)) "same seed, same variants" (descriptors ~seed:3 24)
    (descriptors ~seed:3 24);
  Alcotest.(check bool) "another seed, other variants" false
    (descriptors ~seed:3 24 = descriptors ~seed:4 24);
  let first_block = List.filteri (fun i _ -> i < 4) (variants ~seed:3 4) in
  Alcotest.(check (list string)) "each block holds every app once"
    (List.sort compare Variants.apps)
    (List.sort compare (List.map (fun v -> v.Variants.app) first_block))

let test_variant_keys_distinct () =
  let cfg = Dmll.Config.(default |> with_target Dmll.Native) in
  let key (v : Variants.t) =
    Dmll_backend.Native.cache_key (Dmll.compile_with cfg v.Variants.program).Dmll.final
  in
  let keys = key (Variants.warm_up ~seed:5) :: List.map key (variants ~seed:5 40) in
  Alcotest.(check int) "pairwise distinct kernel keys" (List.length keys)
    (List.length (List.sort_uniq String.compare keys))

let test_calib_scale () =
  List.iter Calib.note [ 0.014; 0.007; 0.5; 0.014 ];
  Alcotest.(check (float 1e-12)) "median of the last three samples" 0.05
    (Calib.scale 0.1);
  Calib.note 0.014;
  Alcotest.(check (float 1e-12)) "one outlier in the window does not move it" 0.05 (Calib.scale 0.1);
  Calib.note 0.007;
  Calib.note 0.007;
  Alcotest.(check (float 1e-12)) "follows a speed change" 0.1 (Calib.scale 0.1)

let test_median () =
  Alcotest.(check (float 0.0)) "even count" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.(check (float 0.0)) "odd count" 3.0 (Stats.median [ 5.0; 1.0; 3.0 ])

let test_failures_counted () =
  let v =
    Variants.build ~seed:1 ~index:0 "logreg" [ ("rows", 64); ("cols", 3) ]
  in
  let inputs = v.Variants.inputs () in
  let reference = Dmll_interp.Interp.run ~inputs v.Variants.program in
  let compiled = Dmll.compile_with Dmll.Config.default v.Variants.program in
  let run () = (Dmll.execute Dmll.Config.default compiled ~inputs).Dmll.value in
  let corrupt value =
    let a = Array.copy (V.to_float_array value) in
    a.(0) <- a.(0) +. 1.0;
    V.of_float_array a
  in
  let tally = Stats.tally () in
  let job f () =
    let value = f () in
    (0.01, [ ("logreg", Stats.check ~reassociates:false ~reference value) ])
  in
  Stats.record tally ~elements:64 (job run);
  Stats.record tally ~elements:64 (job (fun () -> corrupt (run ())));
  Stats.record tally ~elements:64 (job (fun () -> failwith "boom"));
  Alcotest.(check int) "attempted" 3 tally.Stats.attempted;
  Alcotest.(check int) "corrupted and raising jobs failed" 2 tally.Stats.failed;
  Alcotest.(check int) "only the good job has a time" 1 (List.length tally.Stats.times);
  let nudged =
    V.of_float_array (Array.map (fun x -> x *. (1.0 +. 1e-9)) (V.to_float_array reference))
  in
  Alcotest.(check bool) "merge tolerance only where floats reassociate" true
    (Stats.check ~reassociates:true ~reference nudged = Stats.Within_merge_tolerance
    && Stats.check ~reassociates:false ~reference nudged = Stats.Mismatch)

let () =
  Alcotest.run "dmllbench"
    [ ( "determinism",
        [ Alcotest.test_case "pool order" `Quick test_pool_order;
          Alcotest.test_case "variant sequence" `Quick test_variant_sequence;
          Alcotest.test_case "variant kernel keys" `Quick test_variant_keys_distinct;
        ] );
      ( "statistics",
        [ Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "failures counted" `Quick test_failures_counted;
          Alcotest.test_case "speed scaling" `Quick test_calib_scale;
        ] );
    ]
