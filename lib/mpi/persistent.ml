type kind =
  | P_send of { dst : int; tag : int }
  | P_recv of { src : int; tag : int }

type t = {
  p : Mpi.proc;
  comm : Comm.t;
  kind : kind;
  buf : Buffer_view.t;
  mutable current : Request.t option;
}

let send_init p ~comm ~dst ~tag buf =
  { p; comm; kind = P_send { dst; tag }; buf; current = None }

let recv_init p ~comm ~src ~tag buf =
  { p; comm; kind = P_recv { src; tag }; buf; current = None }

let is_active t =
  match t.current with
  | Some req -> not (Request.is_complete req)
  | None -> false

let start t =
  if is_active t then
    invalid_arg "Persistent.start: previous instance still in flight";
  let req =
    match t.kind with
    | P_send { dst; tag } -> Mpi.isend t.p ~comm:t.comm ~dst ~tag t.buf
    | P_recv { src; tag } -> Mpi.irecv t.p ~comm:t.comm ~src ~tag t.buf
  in
  t.current <- Some req;
  req

let start_all ts = List.map start ts

let wait t =
  match t.current with
  | None -> invalid_arg "Persistent.wait: never started"
  | Some req -> Mpi.wait t.p req
