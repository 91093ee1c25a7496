type t = { mutable now : float }

let create () = { now = 0.0 }
let now_ns t = t.now
let now_us t = t.now /. 1e3

(* Inlined, so a charge computed in float arithmetic reaches [now]
   unboxed: charging allocates nothing. *)
let[@inline] advance t ns =
  if ns < 0.0 then invalid_arg "Clock.advance: negative charge";
  t.now <- t.now +. ns

let advance_to t ns =
  if ns < t.now then invalid_arg "Clock.advance_to: target lies in the past";
  t.now <- ns
