type addr = int

let null = 0
let header_bytes = 16
let alignment = 16

exception Out_of_memory
exception Corrupt of string

type block_state = Free | Young | Elder

type t = {
  env : Simtime.Env.t;
  mem : Bytes.t;
  block : int;
  arena : int;
  states : block_state array;
  mutable young_base : int;
  mutable young_ptr : int;
  mutable young_limit : int;
  mutable regions : (int * int) list;  (* elder regions: (base, bytes) *)
  mutable free_list : (int * int) list;  (* elder free chunks: (addr, bytes) *)
  mutable poison : bool;  (* see [poison_free] *)
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

(* Addresses, sizes and forwarding addresses are stored as int32: past
   2^31 they would wrap negative. *)
let max_arena_bytes = 1 lsl 31

let create ?(arena_bytes = 32 * 1024 * 1024) ?(block_bytes = 256 * 1024) env =
  if not (is_power_of_two block_bytes) || block_bytes < 4096 then
    invalid_arg "Heap.create: block_bytes must be a power of two >= 4096";
  if arena_bytes mod block_bytes <> 0 || arena_bytes < 2 * block_bytes then
    invalid_arg
      "Heap.create: arena_bytes must be a multiple of block_bytes, at least \
       two blocks";
  if arena_bytes > max_arena_bytes then
    invalid_arg "Heap.create: arena_bytes must be at most 2^31";
  let n_blocks = arena_bytes / block_bytes in
  let states = Array.make n_blocks Free in
  (* Block 0 is wasted so that address 0 can serve as null: the young block
     starts at block 1. *)
  states.(0) <- Elder;
  states.(1) <- Young;
  {
    env;
    (* Uninitialised: every reader stays inside a live object (zeroed by
       [install_header]) or a free-chunk header. *)
    mem = Bytes.create arena_bytes;
    block = block_bytes;
    arena = arena_bytes;
    states;
    young_base = block_bytes;
    young_ptr = block_bytes;
    young_limit = 2 * block_bytes;
    regions = [];
    free_list = [];
    poison = false;
  }

let env t = t.env
let mem t = t.mem
let block_bytes t = t.block

(* Header accessors. *)

let flag_mark = 1
let flag_pinned = 2
let flag_forwarded = 4

let get_i32 t a = Int32.to_int (Bytes.get_int32_le t.mem a)
let set_i32 t a v = Bytes.set_int32_le t.mem a (Int32.of_int v)
let mt_id t a = get_i32 t a
let set_mt_id t a v = set_i32 t a v
let flags t a = get_i32 t (a + 4)
let set_flags t a v = set_i32 t (a + 4) v
let size_of t a = get_i32 t (a + 8)
let set_size t a v = set_i32 t (a + 8) v
let aux t a = get_i32 t (a + 12)
let set_aux t a v = set_i32 t (a + 12) v
let is_free_chunk t a = mt_id t a = 0
let is_marked t a = flags t a land flag_mark <> 0

let set_bit t a bit on =
  let f = flags t a in
  set_flags t a (if on then f lor bit else f land lnot bit)

let set_marked t a on = set_bit t a flag_mark on
let set_pinned_flag t a on = set_bit t a flag_pinned on
let is_forwarded t a = flags t a land flag_forwarded <> 0
let forward_of t a = aux t a

let set_forward t a dst =
  set_bit t a flag_forwarded true;
  set_aux t a dst

let data_of a = a + header_bytes

(* Raw typed access. *)

let get_u8 t a = Char.code (Bytes.get t.mem a)
let set_u8 t a v = Bytes.set t.mem a (Char.chr (v land 0xff))
let get_i16 t a = Bytes.get_int16_le t.mem a
let set_i16 t a v = Bytes.set_int16_le t.mem a v
let get_i64 t a = Bytes.get_int64_le t.mem a
let set_i64 t a v = Bytes.set_int64_le t.mem a v
let get_f32 t a = Int32.float_of_bits (Bytes.get_int32_le t.mem a)
let set_f32 t a v = Bytes.set_int32_le t.mem a (Int32.bits_of_float v)
let get_f64 t a = Int64.float_of_bits (Bytes.get_int64_le t.mem a)
let set_f64 t a v = Bytes.set_int64_le t.mem a (Int64.bits_of_float v)
let get_ref t a = get_i32 t a
let set_ref_raw t a v = set_i32 t a v

let blit_in t ~src ~src_off ~dst ~len = Bytes.blit src src_off t.mem dst len
let blit_out t ~src ~dst ~dst_off ~len = Bytes.blit t.mem src dst dst_off len
let blit_within t ~src ~dst ~len = Bytes.blit t.mem src t.mem dst len

(* Generations and allocation. *)

let align n = (n + alignment - 1) land lnot (alignment - 1)
let total_size_for ~data_bytes = align (header_bytes + data_bytes)
let in_young t a = a >= t.young_base && a < t.young_ptr
let young_used t = t.young_ptr - t.young_base

let elder_used t =
  let total = List.fold_left (fun acc (_, len) -> acc + len) 0 t.regions in
  let free = List.fold_left (fun acc (_, sz) -> acc + sz) 0 t.free_list in
  total - free

let install_header t a ~mt ~total =
  set_mt_id t a mt;
  set_flags t a 0;
  set_size t a total;
  set_aux t a 0;
  Bytes.fill t.mem (a + header_bytes) (total - header_bytes) '\000'

let try_alloc_young t ~mt ~data_bytes =
  let total = total_size_for ~data_bytes in
  if t.young_ptr + total > t.young_limit then None
  else begin
    let a = t.young_ptr in
    t.young_ptr <- a + total;
    install_header t a ~mt ~total;
    Some a
  end

let poison_fill t a len = Bytes.fill t.mem a len '\xAA'

(* Hand Free block [i] out as [state]; under [poison_free] it is poisoned
   first. *)
let take_block t i state =
  t.states.(i) <- state;
  if t.poison then poison_fill t (i * t.block) t.block

let write_free_chunk t a size =
  set_mt_id t a 0;
  set_flags t a 0;
  set_size t a size;
  set_aux t a 0

(* Find [n] contiguous Free blocks and turn them into a new elder region
   backed by one free chunk. *)
let acquire_region t n_blocks =
  let n = Array.length t.states in
  let rec scan i run =
    if i >= n then None
    else if t.states.(i) = Free then
      if run + 1 = n_blocks then Some (i - run) else scan (i + 1) (run + 1)
    else scan (i + 1) 0
  in
  match scan 0 0 with
  | None -> false
  | Some first ->
      for i = first to first + n_blocks - 1 do
        take_block t i Elder
      done;
      let base = first * t.block in
      let len = n_blocks * t.block in
      t.regions <- (base, len) :: t.regions;
      write_free_chunk t base len;
      t.free_list <- (base, len) :: t.free_list;
      true

let alloc_from_free_list t ~mt ~total =
  let rec take acc = function
    | [] -> None
    | (a, sz) :: rest when sz >= total ->
        let remainder = sz - total in
        let rest =
          if remainder >= header_bytes then begin
            write_free_chunk t (a + total) remainder;
            (a + total, remainder) :: rest
          end
          else rest
        in
        let total = if remainder >= header_bytes then total else sz in
        install_header t a ~mt ~total;
        t.free_list <- List.rev_append acc rest;
        Some a
    | chunk :: rest -> take (chunk :: acc) rest
  in
  take [] t.free_list

let try_alloc_elder t ~mt ~data_bytes =
  let total = total_size_for ~data_bytes in
  match alloc_from_free_list t ~mt ~total with
  | Some a -> Some a
  | None ->
      let blocks_needed = (total + t.block - 1) / t.block in
      if acquire_region t blocks_needed then alloc_from_free_list t ~mt ~total
      else None

let reset_young t = t.young_ptr <- t.young_base

let promote_young_block t =
  let tail = t.young_limit - t.young_ptr in
  if tail >= header_bytes then begin
    write_free_chunk t t.young_ptr tail;
    t.free_list <- (t.young_ptr, tail) :: t.free_list
  end;
  let idx = t.young_base / t.block in
  t.states.(idx) <- Elder;
  t.regions <- (t.young_base, t.block) :: t.regions;
  (* Install a fresh young block. *)
  let n = Array.length t.states in
  let rec find i = if i >= n then None else
      if t.states.(i) = Free then Some i else find (i + 1)
  in
  match find 0 with
  | None -> raise Out_of_memory
  | Some i ->
      take_block t i Young;
      t.young_base <- i * t.block;
      t.young_ptr <- t.young_base;
      t.young_limit <- t.young_base + t.block

let free_object t a =
  let size = size_of t a in
  write_free_chunk t a size;
  t.free_list <- (a, size) :: t.free_list

let iter_young t f =
  let p = ref t.young_base in
  while !p < t.young_ptr do
    let size = size_of t !p in
    let a = !p in
    p := !p + size;
    f a
  done

let sorted_regions t =
  List.sort (fun (a, _) (b, _) -> compare a b) t.regions

let iter_elder t f =
  List.iter
    (fun (base, len) ->
      let p = ref base in
      while !p < base + len do
        let size = size_of t !p in
        let a = !p in
        p := !p + size;
        if mt_id t a <> 0 then f a
      done)
    (sorted_regions t)

let sweep_elder t ~keep =
  let freed = ref 0 in
  let new_free = ref [] in
  let flush_run run_start run_end =
    if run_end > run_start then begin
      let size = run_end - run_start in
      write_free_chunk t run_start size;
      new_free := (run_start, size) :: !new_free
    end
  in
  List.iter
    (fun (base, len) ->
      let p = ref base in
      let run_start = ref (-1) in
      while !p < base + len do
        let a = !p in
        let size = size_of t a in
        p := !p + size;
        let dead =
          is_free_chunk t a || is_forwarded t a || not (keep a)
        in
        if dead then begin
          if not (is_free_chunk t a) then freed := !freed + size;
          if !run_start < 0 then run_start := a
        end
        else begin
          if !run_start >= 0 then flush_run !run_start a;
          run_start := -1
        end
      done;
      if !run_start >= 0 then flush_run !run_start (base + len))
    (sorted_regions t);
  t.free_list <- !new_free;
  !freed

let check_consistency t =
  let corrupt fmt =
    Printf.ksprintf (fun msg -> raise (Corrupt msg))
      ("Heap.check_consistency: " ^^ fmt)
  in
  let check_span what base stop =
    let p = ref base in
    while !p < stop do
      let size = size_of t !p in
      if size < header_bytes || size mod alignment <> 0 then
        corrupt "bad size %d at %d in %s" size !p what;
      p := !p + size
    done;
    if !p <> stop then corrupt "overrun in %s (%d <> %d)" what !p stop
  in
  check_span "young" t.young_base t.young_ptr;
  List.iter
    (fun (base, len) -> check_span "elder" base (base + len))
    (sorted_regions t)

let poison_free t =
  if not t.poison then begin
    t.poison <- true;
    (* Block 0 only backs the null address: nothing ever writes it. *)
    poison_fill t 0 t.block
  end;
  poison_fill t t.young_ptr (t.young_limit - t.young_ptr);
  List.iter
    (fun (a, size) -> poison_fill t (a + header_bytes) (size - header_bytes))
    t.free_list
