module Env = Simtime.Env
module Key = Simtime.Stats.Key

module Cache = struct
  type entry = {
    e_addr : int;
    e_len : int;
    mutable e_pins : int;
    mutable e_stamp : int;
  }

  type t = {
    capacity : int;
    mutable entries : entry list;
    mutable bytes : int;
    mutable tick : int;
    mutable c_hits : int;
    mutable c_misses : int;
    mutable c_evictions : int;
  }

  type outcome = Hit | Miss of { evicted : (int * int) list }

  let create ~capacity_bytes =
    {
      capacity = capacity_bytes;
      entries = [];
      bytes = 0;
      tick = 0;
      c_hits = 0;
      c_misses = 0;
      c_evictions = 0;
    }

  let covering t ~addr ~len =
    List.find_opt
      (fun e -> e.e_addr <= addr && addr + len <= e.e_addr + e.e_len)
      t.entries

  let touch t e =
    t.tick <- t.tick + 1;
    e.e_stamp <- t.tick

  (* Evict least-recently-used unpinned entries until [need] more bytes fit
     under the capacity, or nothing evictable remains (pinned window
     registrations may legitimately exceed it). *)
  let evict_for t need =
    let rec go acc =
      if t.bytes + need <= t.capacity then List.rev acc
      else
        match List.filter (fun e -> e.e_pins = 0) t.entries with
        | [] -> List.rev acc
        | e0 :: rest ->
            let victim =
              List.fold_left
                (fun a e -> if e.e_stamp < a.e_stamp then e else a)
                e0 rest
            in
            t.entries <- List.filter (fun e -> e != victim) t.entries;
            t.bytes <- t.bytes - victim.e_len;
            t.c_evictions <- t.c_evictions + 1;
            go ((victim.e_addr, victim.e_len) :: acc)
    in
    go []

  let insert t ~addr ~len ~pins =
    let evicted = evict_for t len in
    let e = { e_addr = addr; e_len = len; e_pins = pins; e_stamp = 0 } in
    touch t e;
    t.entries <- e :: t.entries;
    t.bytes <- t.bytes + len;
    Miss { evicted }

  let access t ~addr ~len =
    match covering t ~addr ~len with
    | Some e ->
        t.c_hits <- t.c_hits + 1;
        touch t e;
        Hit
    | None ->
        t.c_misses <- t.c_misses + 1;
        insert t ~addr ~len ~pins:0

  let pin t ~addr ~len =
    match covering t ~addr ~len with
    | Some e ->
        t.c_hits <- t.c_hits + 1;
        touch t e;
        e.e_pins <- e.e_pins + 1;
        Hit
    | None ->
        t.c_misses <- t.c_misses + 1;
        insert t ~addr ~len ~pins:1

  let unpin t ~addr ~len =
    match
      List.find_opt
        (fun e ->
          e.e_pins > 0 && e.e_addr <= addr && addr + len <= e.e_addr + e.e_len)
        t.entries
    with
    | Some e -> e.e_pins <- e.e_pins - 1
    | None ->
        invalid_arg
          (Printf.sprintf "Rdma_channel.Cache.unpin: no pinned entry covers \
                           [%d,+%d)" addr len)

  let mem t ~addr ~len = Option.is_some (covering t ~addr ~len)
  let entries t = List.length t.entries
  let registered_bytes t = t.bytes

  let pinned_bytes t =
    List.fold_left
      (fun acc e -> if e.e_pins > 0 then acc + e.e_len else acc)
      0 t.entries

  let hits t = t.c_hits
  let misses t = t.c_misses
  let evictions t = t.c_evictions
end

type t = {
  env : Env.t;
  chan : Channel.t;
  caches : (int, Cache.t) Hashtbl.t;
  mutable addrs : (Bytes.t * int) list;
  mutable next_addr : int;
}

let page = 4096

let create ?topo env ~n_ranks =
  let cost = env.Env.cost in
  (* The fabric only carries inter-node traffic; same-node peers pay the
     shared-memory tier, as with the other channels. *)
  let chan =
    Channel.make ~name:"rdma" ~per_msg_ns:cost.rdma_per_msg_ns
      ~per_byte_ns:cost.rdma_write_ns_per_byte ?topo
      ~intra:(cost.shm_per_msg_ns, cost.shm_ns_per_byte)
      ~syscall_fraction:0.05 ~env ~n_ranks ()
  in
  {
    env;
    chan;
    caches = Hashtbl.create 16;
    addrs = [];
    next_addr = 0x1000_0000;
  }

let channel t = t.chan
let eager_threshold t = t.env.Env.cost.rdma_eager_threshold_bytes

let cache t ~rank =
  match Hashtbl.find_opt t.caches rank with
  | Some c -> c
  | None ->
      let c =
        Cache.create ~capacity_bytes:t.env.Env.cost.rdma_cache_capacity_bytes
      in
      Hashtbl.add t.caches rank c;
      c

(* Synthetic page-aligned addresses, keyed by physical identity: content
   equality must NOT alias two live buffers to one registration. The table
   is a linear scan — windows and message buffers per world are few. *)
let addr_of t b =
  match List.find_opt (fun (b', _) -> b' == b) t.addrs with
  | Some (_, a) -> a
  | None ->
      let a = t.next_addr in
      let extent = ((Stdlib.max 1 (Bytes.length b) + page - 1) / page) * page in
      t.next_addr <- t.next_addr + extent + page;
      t.addrs <- (b, a) :: t.addrs;
      a

let charge_miss t ~len evicted =
  let cost = t.env.Env.cost in
  Env.count t.env Key.rdma_reg_misses;
  Env.count_n t.env Key.rdma_reg_evictions (List.length evicted);
  Env.charge t.env cost.rdma_reg_base_ns;
  Env.charge_per_byte t.env cost.rdma_reg_ns_per_byte len

let register t ~rank ~addr ~len =
  match Cache.access (cache t ~rank) ~addr ~len with
  | Cache.Hit ->
      Env.count t.env Key.rdma_reg_hits;
      true
  | Cache.Miss { evicted } ->
      charge_miss t ~len evicted;
      false

let pin_region t ~rank ~addr ~len =
  match Cache.pin (cache t ~rank) ~addr ~len with
  | Cache.Hit -> Env.count t.env Key.rdma_reg_hits
  | Cache.Miss { evicted } -> charge_miss t ~len evicted

let unpin_region t ~rank ~addr ~len = Cache.unpin (cache t ~rank) ~addr ~len

let charge_rndv t ~len =
  let cost = t.env.Env.cost in
  let write =
    (2.0 *. cost.rdma_per_msg_ns)
    +. (float_of_int len *. cost.rdma_write_ns_per_byte)
  in
  let read =
    cost.rdma_per_msg_ns +. (float_of_int len *. cost.rdma_read_ns_per_byte)
  in
  if write <= read then begin
    (* Packet layer already streams at the write rate; the write variant
       adds one extra control descriptor (the target's address reply). *)
    Env.count t.env Key.rdma_write_rndv;
    Env.charge t.env cost.rdma_per_msg_ns;
    `Write
  end
  else begin
    Env.count t.env Key.rdma_read_rndv;
    Env.charge_per_byte t.env
      (cost.rdma_read_ns_per_byte -. cost.rdma_write_ns_per_byte)
      len;
    `Read
  end

let charge_eager t ~len =
  Env.count t.env Key.rdma_eager_copies;
  (* copy-in to the origin's bounce buffer + copy-out at the target *)
  Env.charge_per_byte t.env (2.0 *. t.env.Env.cost.memcpy_ns_per_byte) len
