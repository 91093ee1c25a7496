type kind = Send_req | Recv_req | Coll_req of { rounds : int; steps : int }

type reason =
  | Error of string
  | Proc_failed of int
  | Comm_revoked of int

let reason_message = function
  | Error msg -> msg
  | Proc_failed r -> Printf.sprintf "process failure: rank %d is dead" r
  | Comm_revoked ctx -> Printf.sprintf "communicator revoked (ctx %d)" ctx

type t = {
  r_id : int;
  r_kind : kind;
  mutable r_complete : bool;
  mutable r_status : Status.t option;
  mutable r_reason : reason option;
  mutable r_callbacks : (unit -> unit) list;
}

let create ~id kind =
  { r_id = id; r_kind = kind; r_complete = false; r_status = None;
    r_reason = None; r_callbacks = [] }

let id t = t.r_id
let kind t = t.r_kind
let is_complete t = t.r_complete

let fire_callbacks t =
  let cbs = List.rev t.r_callbacks in
  t.r_callbacks <- [];
  List.iter (fun f -> f ()) cbs

(* Idempotent: a retransmitted CTS or DATA packet that slips past duplicate
   suppression must not crash the progress engine; the first completion
   wins. *)
let complete t status =
  if not t.r_complete then begin
    t.r_complete <- true;
    t.r_status <- status;
    fire_callbacks t
  end

let fail_reason t reason =
  if not t.r_complete then begin
    t.r_complete <- true;
    t.r_status <- None;
    t.r_reason <- Some reason;
    fire_callbacks t
  end

let fail t msg = fail_reason t (Error msg)
let status t = t.r_status
let reason t = t.r_reason
let error t = Option.map reason_message t.r_reason

let on_complete t f =
  if t.r_complete then f () else t.r_callbacks <- f :: t.r_callbacks
