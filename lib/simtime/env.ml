type span_kind = Begin | End | Instant

type sink =
  kind:span_kind ->
  id:int option ->
  rank:int ->
  cat:string ->
  name:string ->
  args:(unit -> (string * string) list) ->
  unit

type t = {
  clock : Clock.t;
  cost : Cost.t;
  stats : Stats.t;
  mutable sink : sink option;
}

let create ?(cost = Cost.motor) () =
  { clock = Clock.create (); cost; stats = Stats.create (); sink = None }

let now_us t = Clock.now_us t.clock
let now_ns t = Clock.now_ns t.clock
let[@inline] charge t ns = Clock.advance t.clock ns

let[@inline] charge_per_byte t ns_per_byte n =
  if n < 0 then invalid_arg "Env.charge_per_byte: negative byte count";
  Clock.advance t.clock (ns_per_byte *. float_of_int n)

let count t key = Stats.incr t.stats key
let count_n t key n = Stats.add t.stats key n
let observe t key v = Stats.observe t.stats key v

let with_timer t key f =
  Stats.with_timer t.stats key ~now:(fun () -> Clock.now_ns t.clock) f
