type posted = {
  p_pattern : Tag_match.pattern;
  p_sink : Buffer_view.t;
  p_req : Request.t;
}

type unexpected =
  | U_eager of Packet.envelope * Bytes.t
  | U_rts of Packet.envelope * int

(* A FIFO with amortized-O(1) append: [front] holds the oldest elements
   in order, [back] the newest in reverse. Appending conses onto [back];
   a search walks [front] and, only if it must, folds [back] into [front]
   (one reversal per element over its lifetime). The naive
   [list @ [x]] append this replaces was O(n) per message — O(n^2) under
   backlog, exactly where an unexpected-message flood hurts most. *)
type 'a fifo = {
  mutable front : 'a list; (* oldest first *)
  mutable back : 'a list; (* newest first *)
  mutable size : int;
}

let fifo_create () = { front = []; back = []; size = 0 }

let fifo_append q x =
  q.back <- x :: q.back;
  q.size <- q.size + 1

let fifo_norm q =
  if q.back <> [] then begin
    q.front <- q.front @ List.rev q.back;
    q.back <- []
  end

(* Remove and return the first element satisfying [pred], probing (and
   charging, via [probe]) each element inspected, in arrival order. *)
let fifo_take q ~probe ~pred =
  fifo_norm q;
  let rec go acc = function
    | [] -> None
    | x :: rest ->
        probe ();
        if pred x then begin
          q.front <- List.rev_append acc rest;
          q.size <- q.size - 1;
          Some x
        end
        else go (x :: acc) rest
  in
  go [] q.front

let fifo_find q ~probe ~pred =
  fifo_norm q;
  let rec go = function
    | [] -> None
    | x :: rest ->
        probe ();
        if pred x then Some x else go rest
  in
  go q.front

type t = {
  env : Simtime.Env.t;
  posted : posted fifo; (* in post order *)
  unexpected : unexpected fifo; (* in arrival order *)
}

let create env =
  { env; posted = fifo_create (); unexpected = fifo_create () }

let post_recv t p = fifo_append t.posted p

let charge_probe t =
  Simtime.Env.charge t.env t.env.Simtime.Env.cost.queue_probe_ns

let take_posted t envelope =
  fifo_take t.posted
    ~probe:(fun () -> charge_probe t)
    ~pred:(fun p -> Tag_match.matches p.p_pattern envelope)

let add_unexpected t u =
  Simtime.Env.count t.env Simtime.Stats.Key.unexpected_msgs;
  fifo_append t.unexpected u

let envelope_of = function U_eager (e, _) -> e | U_rts (e, _) -> e

let take_unexpected t pattern =
  fifo_take t.unexpected
    ~probe:(fun () -> charge_probe t)
    ~pred:(fun u -> Tag_match.matches pattern (envelope_of u))

let peek_unexpected t pattern =
  match
    fifo_find t.unexpected
      ~probe:(fun () -> charge_probe t)
      ~pred:(fun u -> Tag_match.matches pattern (envelope_of u))
  with
  | Some u -> Some (envelope_of u)
  | None -> None

let posted_length t = t.posted.size
let unexpected_length t = t.unexpected.size

(* Administrative removal (failure teardown, revocation): unlike the
   matching paths above this charges no probe time — it models the
   runtime sweeping its own tables, not the device searching a queue. *)
let fifo_extract q ~pred =
  fifo_norm q;
  let gone, kept = List.partition pred q.front in
  q.front <- kept;
  q.size <- List.length kept;
  gone

let remove_posted t ~pred = fifo_extract t.posted ~pred
let remove_unexpected t ~pred = fifo_extract t.unexpected ~pred

let iter_posted t f =
  fifo_norm t.posted;
  List.iter f t.posted.front
