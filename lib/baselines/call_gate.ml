module Env = Simtime.Env
module Key = Simtime.Stats.Key

type mechanism = Pinvoke | Jni

let enter mech env ~args =
  let cost = env.Env.cost in
  let base, hist_key =
    match mech with
    | Pinvoke ->
        Env.count env Key.pinvokes;
        (cost.pinvoke_ns, Key.h_pinvoke_gate)
    | Jni ->
        Env.count env Key.jni_calls;
        (cost.jni_ns, Key.h_jni_gate)
  in
  let crossing =
    base
    +. (cost.marshal_per_arg_ns *. float_of_int args)
    +. cost.managed_wrapper_ns
  in
  Env.charge env crossing;
  Env.observe env hist_key crossing
