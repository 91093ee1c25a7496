(** Object-array scatter/gather the way a managed wrapper must do it.

    Section 2.4: with an atomic standard serialization format, scattering
    an array of objects over N hosts forces the library to "create N new
    sub-arrays and serialize them individually". This module implements
    exactly that emulation over the standard serializers and the wrapper
    transport, as the comparison point for Motor's split representation. *)

module Comm = Mpi_core.Comm

val scatter_objects :
  mech:Call_gate.mechanism ->
  profile:Std_serializer.profile ->
  Motor.World.rank_ctx ->
  comm:Comm.t ->
  root:int ->
  Vm.Object_model.obj option ->
  Vm.Object_model.obj
(** Root passes [Some array] (a reference array); every member receives a
    fresh sub-array with its contiguous share. The root pays for
    materializing one managed sub-array per member plus one standard
    serialization each. *)
