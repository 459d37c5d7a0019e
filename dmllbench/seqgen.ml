(* Seeded derivation of everything a run generates: sub-seeds for the
   data generators and the order in which jobs draw from an input pool.
   The same seed always yields the same sequence. *)

(* SplitMix64 finaliser folded over [parts]: independent, reproducible
   sub-seeds for (seed, app, pool entry, ...) tuples. *)
let mix (parts : int list) : int =
  let step h x =
    let z = Int64.add (Int64.logxor h (Int64.of_int x)) 0x9E3779B97F4A7C15L in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)
  in
  Int64.to_int (List.fold_left step 0L parts) land 0x3FFF_FFFF

let rng (parts : int list) : Random.State.t = Random.State.make [| mix parts |]

(* Which pool entry each app's input comes from, job after job: a seeded
   draw that never gives an app the same entry twice in a row. *)
type order = { st : Random.State.t; last : int array; pool : int }

let order ~(seed : int) ~(apps : int) ~(pool : int) : order =
  if pool < 2 then invalid_arg "Seqgen.order: pool needs two entries";
  { st = rng [ seed; 0x0dde ]; last = Array.make apps (-1); pool }

let next (o : order) : int array =
  Array.iteri
    (fun a last ->
      let e =
        if last < 0 then Random.State.int o.st o.pool
        else
          let d = Random.State.int o.st (o.pool - 1) in
          if d >= last then d + 1 else d
      in
      o.last.(a) <- e)
    o.last;
  Array.copy o.last
