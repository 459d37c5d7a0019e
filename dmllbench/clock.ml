(* Monotonic wall clock (CLOCK_MONOTONIC).  Every job time and layer
   time of the benchmark is read from here, never from a figure the
   program reports about itself. *)

let now () : float = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time (f : unit -> 'a) : 'a * float =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)
